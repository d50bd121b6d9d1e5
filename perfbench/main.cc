// bsn1_bench: one run of one BSN1 workload (perfbench/README.md).
//
//   bsn1_bench --workload ingest|read|mixed --seed N --seconds S
//              --trace 0|1 --work-dir DIR [--span-dir DIR] [--source ID]
//
// Prints the host block, the config block, the request-stream digest and
// every metric as "name value unit" lines, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics of a plain run; --trace 1 repeats the
// workload with the same seed untraced and traced (half the seconds each)
// and reports the per-layer metrics. Exits non-zero, without a result
// line, when the run cannot be carried out.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "layers.h"
#include "workloads.h"

namespace backsort::perf {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string span_dir;
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--span-dir") {
      args->span_dir = value;
    } else if (key == "--source") {
      args->source = value;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bsn1_bench --workload ingest|read|mixed --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--span-dir DIR] "
                 "[--source ID]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 1;
  }

  // The request stream is a function of the seed; bsn1_selftest pins its
  // digest for a fixed seed, so a change to the generator shows there.
  const auto delay = MakeDelay(spec);
  const StreamModel model(*delay, args.seed);
  const uint64_t digest = RequestStreamDigest(spec, model, args.seed, 10'000);

  CpuStealShare();
  std::printf("host %s\n", HostBlockJson(args.work_dir, args.source).c_str());
  std::printf("config %s\n",
              ConfigBlockJson(spec, args.seed, args.seconds,
                              args.work_dir + "/config")
                  .c_str());
  std::printf("request_stream_digest %016llx\n",
              static_cast<unsigned long long>(digest));

  PassConfig cfg;
  cfg.spec = spec;
  cfg.seed = args.seed;
  cfg.seconds = args.trace ? args.seconds / 2 : args.seconds;
  cfg.dir = args.work_dir + "/pass";

  MetricTable metrics, info;
  PassResult plain;
  if (Status st = RunPass(cfg, model, &plain); !st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    return 1;
  }
  uint64_t attempted = plain.attempted, failed = plain.failed;
  std::vector<std::string> errors = plain.errors;
  if (!args.trace) {
    EndToEndMetrics(plain, &metrics, &info);
    for (size_t op = 0; op < kNumRpcOps; ++op) {
      std::printf("samples %-8s n=%zu tail=p%g\n", OpName(static_cast<Op>(op)),
                  plain.latency_ms[op].size(),
                  TailPercentileFor(plain.latency_ms[op].size()));
    }
  } else {
    PassResult traced;
    cfg.trace = true;
    if (Status st = RunPass(cfg, model, &traced); !st.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n", st.ToString().c_str());
      return 1;
    }
    attempted += traced.attempted;
    failed += traced.failed;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    Tracer layers;
    if (Status st = MeasureLayers(cfg, model, traced, plain, &layers, &metrics);
        !st.ok()) {
      std::fprintf(stderr, "layer probes failed: %s\n", st.ToString().c_str());
      return 1;
    }
    for (const auto& [name, unit] : LayerMetricNames()) {
      if (!metrics.Has(name)) {
        std::fprintf(stderr, "layer metric %s missing\n", name.c_str());
        return 1;
      }
    }
    if (!args.span_dir.empty()) {
      traced.tracer.Absorb(layers);
      const std::string path = args.span_dir + "/spans-" + spec.name + "-" +
                               std::to_string(args.seed) + ".tsv";
      if (!WriteSpans(traced.tracer.spans(), path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    }
  }
  std::filesystem::remove_all(args.work_dir, ec);

  std::printf("host_cpu_steal_share %.4f\n", CpuStealShare());
  for (const std::string& e : errors) std::printf("error %s\n", e.c_str());
  std::printf("failed_op_ratio %.6f (%llu of %llu operations)\n",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!info.values().empty()) {
    std::printf("-- reported, not gated:\n%s-- gated:\n", info.Lines().c_str());
  }
  std::fputs(metrics.Lines().c_str(), stdout);
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed),
              metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace backsort::perf

int main(int argc, char** argv) { return backsort::perf::Main(argc, argv); }
