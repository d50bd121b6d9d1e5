// bsn1_selftest: the benchmark's own tests. Exits non-zero on the first
// failed check. Run by perfbench/run.py after every build.

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <thread>

#include "harness.h"
#include "layers.h"
#include "workloads.h"

namespace backsort::perf {
namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void TestMetricNames() {
  std::set<std::string> seen;
  auto check = [&](const std::vector<std::pair<std::string, std::string>>& names) {
    for (const auto& [name, unit] : names) {
      Expect(ValidMetricName(name), name.c_str());
      Expect(!unit.empty() && unit.size() <= 16, (name + " has a unit").c_str());
      Expect(seen.insert(name).second, (name + " is unique").c_str());
    }
  };
  check(EndToEndMetricNames());
  check(LayerMetricNames());
  Expect(seen.count("setup_s") == 1, "setup_s is an end-to-end metric");

  // The report carries exactly the declared end-to-end names and units.
  PassResult r;
  MetricTable table, info;
  EndToEndMetrics(r, &table, &info);
  Expect(table.values().size() == EndToEndMetricNames().size(),
         "end-to-end report size");
  for (const auto& [name, vu] : info.values()) {
    Expect(ValidMetricName(name) && !vu.second.empty(), name.c_str());
    Expect(seen.insert(name).second, (name + " is not also gated").c_str());
  }
  for (const auto& [name, unit] : EndToEndMetricNames()) {
    Expect(table.Has(name) && table.values().at(name).second == unit,
           (name + " reported with its unit").c_str());
  }
  Expect(!ValidMetricName("bad name"), "space rejected");
  Expect(!ValidMetricName(".leading"), "leading dot rejected");
}

void TestOracle() {
  AbsNormalDelay delay(1, 10);
  const StreamModel model(delay, 3);
  const uint32_t s = 5;
  const Visibility vis{s, 5000, 5000};
  const Timestamp lo = 5, hi = 1100;
  std::vector<TvPairDouble> answer;
  for (Timestamp t = lo; t <= hi; ++t) {
    if (model.ArrivalOf(s, t) < vis.acked) {
      answer.push_back({t, StreamModel::ValueAt(s, t)});
    }
  }
  std::string why;
  Expect(CheckQuery(model, vis, lo, hi, answer, &why), "correct query passes");

  std::vector<TvPairDouble> wrong = answer;
  wrong[wrong.size() / 2].v += 1.0;
  Expect(!CheckQuery(model, vis, lo, hi, wrong, &why), "planted value caught");
  wrong = answer;
  wrong.erase(wrong.begin() + 3);
  Expect(!CheckQuery(model, vis, lo, hi, wrong, &why), "lost point caught");
  wrong = answer;
  std::swap(wrong[1], wrong[2]);
  Expect(!CheckQuery(model, vis, lo, hi, wrong, &why), "unsorted answer caught");

  // A point in flight may or may not be visible; a point never sent may not.
  const uint64_t in_flight = vis.acked;
  const Timestamp flying = model.TimeAt(s, in_flight);
  std::vector<TvPairDouble> with_flying;
  for (Timestamp t = 0; t <= flying; ++t) {
    if (model.ArrivalOf(s, t) <= in_flight) {
      with_flying.push_back({t, StreamModel::ValueAt(s, t)});
    }
  }
  Expect(CheckQuery(model, {s, vis.acked, vis.acked + 1}, 0, flying,
                    with_flying, &why),
         "in-flight point allowed");
  Expect(!CheckQuery(model, vis, 0, flying, with_flying, &why),
         "unsent point caught");

  TsFileReader::RangeStats stats;
  stats.min = std::numeric_limits<double>::infinity();
  stats.max = -std::numeric_limits<double>::infinity();
  bool nan_seen = false;
  for (const TvPairDouble& p : answer) {
    if (stats.count == 0) {
      stats.first_time = p.t;
      stats.first = p.v;
    }
    stats.last_time = p.t;
    stats.last = p.v;
    ++stats.count;
    if (std::isnan(p.v)) {
      nan_seen = true;
      continue;
    }
    stats.min = std::min(stats.min, p.v);
    stats.max = std::max(stats.max, p.v);
    stats.sum += p.v;
  }
  Expect(nan_seen, "the range holds a NaN point");
  Expect(CheckAggregate(model, vis, lo, hi, stats, &why), "correct aggregate passes");
  TsFileReader::RangeStats bad = stats;
  bad.sum += 0.5;
  Expect(!CheckAggregate(model, vis, lo, hi, bad, &why), "planted sum caught");
  bad = stats;
  bad.count -= 1;
  Expect(!CheckAggregate(model, vis, lo, hi, bad, &why), "planted count caught");
  bad = stats;
  bad.max = std::numeric_limits<double>::quiet_NaN();
  Expect(!CheckAggregate(model, vis, lo, hi, bad, &why), "NaN max caught");

  const Timestamp newest = model.MaxTimeBefore(s, vis.acked);
  Expect(CheckLatest(model, vis, {newest, StreamModel::ValueAt(s, newest)}, &why),
         "correct latest passes");
  Expect(!CheckLatest(model, vis, {newest - 1, StreamModel::ValueAt(s, newest - 1)}, &why),
         "stale latest caught");
}

void TestSettledOracle() {
  // Agrees with the brute-force checks on settled data, a partial block
  // included, and catches the same planted errors.
  AbsNormalDelay delay(1, 50);
  const StreamModel model(delay, 5);
  const std::vector<uint64_t> acked = {0, 1, 70'000, StreamModel::kBlock};
  const SettledOracle settled(model, acked);
  Rng rng(9);
  std::string why;
  for (uint32_t s = 0; s < acked.size(); ++s) {
    const Visibility vis{s, acked[s], acked[s]};
    const Timestamp newest = model.MaxTimeBefore(s, acked[s]);
    for (int i = 0; i < 200; ++i) {
      const Timestamp lo = static_cast<Timestamp>(rng.NextBelow(80'000)) - 100;
      const Timestamp hi = lo + static_cast<Timestamp>(rng.NextBelow(i % 2 ? 300 : 20'000));
      std::vector<TvPairDouble> answer;
      TsFileReader::RangeStats stats;
      stats.min = std::numeric_limits<double>::infinity();
      stats.max = -std::numeric_limits<double>::infinity();
      for (Timestamp t = std::max<Timestamp>(lo, 0); t <= std::min(hi, newest); ++t) {
        if (model.ArrivalOf(s, t) >= acked[s]) continue;
        const double v = StreamModel::ValueAt(s, t);
        answer.push_back({t, v});
        if (stats.count++ == 0) {
          stats.first_time = t;
          stats.first = v;
        }
        stats.last_time = t;
        stats.last = v;
        if (std::isnan(v)) continue;
        stats.min = std::min(stats.min, v);
        stats.max = std::max(stats.max, v);
        stats.sum += v;
      }
      Expect(CheckQuery(model, vis, lo, hi, answer, &why), "reference query");
      Expect(settled.CheckQuery(s, lo, hi, answer, &why), "settled query passes");
      Expect(CheckAggregate(model, vis, lo, hi, stats, &why), "reference aggregate");
      Expect(settled.CheckAggregate(s, lo, hi, stats, &why), "settled aggregate passes");
      if (answer.size() < 3) continue;
      std::vector<TvPairDouble> wrong = answer;
      wrong[wrong.size() / 2].v += 0.25;
      Expect(!settled.CheckQuery(s, lo, hi, wrong, &why), "settled: planted value caught");
      wrong = answer;
      wrong.erase(wrong.begin() + 1);
      Expect(!settled.CheckQuery(s, lo, hi, wrong, &why), "settled: lost point caught");
      wrong = answer;
      wrong[1].t = wrong[0].t;
      Expect(!settled.CheckQuery(s, lo, hi, wrong, &why), "settled: duplicate caught");
      TsFileReader::RangeStats bad = stats;
      bad.last_time -= 1;
      Expect(!settled.CheckAggregate(s, lo, hi, bad, &why), "settled: last_time caught");
      bad = stats;
      bad.max += 0.25;
      Expect(!settled.CheckAggregate(s, lo, hi, bad, &why), "settled: max caught");
      bad = stats;
      bad.sum -= 0.25;
      Expect(!settled.CheckAggregate(s, lo, hi, bad, &why), "settled: sum caught");
      if (failures > 0) return;
    }
    if (acked[s] == 0) continue;
    // A point arriving after the acknowledged ones is never visible.
    const Timestamp unsent = model.TimeAt(s, acked[s]);
    if (unsent < newest) {
      Expect(!settled.CheckQuery(s, unsent, unsent,
                                 {{unsent, StreamModel::ValueAt(s, unsent)}}, &why),
             "settled: unacknowledged point caught");
    }
    Expect(settled.CheckLatest(s, {newest, StreamModel::ValueAt(s, newest)}, &why),
           "settled latest passes");
    Expect(!settled.CheckLatest(s, {newest - 1, StreamModel::ValueAt(s, newest - 1)}, &why),
           "settled: stale latest caught");
  }
}

void TestOpenLoopStall() {
  // 1000 requests/s; request 5 stalls for 30 ms. Requests queued behind it
  // are sent late and their latency counts from when they were due.
  const std::vector<OpTiming> t = RunOpenLoop(1000, 0.1, [](uint64_t i) {
    if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  Expect(t.size() >= 20, "open loop issued its requests");
  if (t.size() < 20) return;
  Expect(t[5].latency_ms() >= 30, "stalled call latency");
  Expect(t[6].late_ms() >= 25, "next request sent late");
  Expect(t[6].latency_ms() >= 25, "next request latency counts from due time");
  Expect(t[6].done_ns - t[6].sent_ns < 5'000'000, "its own call was fast");
  Expect(t[2].late_ms() < 5, "requests before the stall on time");
}

void TestPercentiles() {
  Expect(TailPercentileFor(1000) == 99, "1000 samples support p99");
  Expect(TailPercentileFor(999) == 98, "999 samples fall back to p98");
  Expect(TailPercentileFor(200) == 95, "200 samples support p95");
  Expect(TailPercentileFor(100) == 90, "100 samples support p90");
  Expect(TailPercentileFor(10'000) == 99, "capped at p99");
  Expect(TailPercentileFor(10'000, 99.9) == 99.9, "10000 samples support p99.9");
  Expect(TailPercentileFor(5) == 50, "tiny samples report the median");
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  Expect(Percentile(v, 99) == 990, "nearest-rank p99 of 1..1000");
  Expect(Percentile(v, 50) == 500, "nearest-rank p50 of 1..1000");
  // Exactly ten samples lie beyond the reported p99 of 1000 values.
  size_t beyond = 0;
  for (double x : v) beyond += x > Percentile(v, 99) ? 1 : 0;
  Expect(beyond == 10, "ten samples beyond p99");
}

void TestTailLatency() {
  // 5000 samples in completion order, one 1000-sample chunk of them
  // hit by a stall: the tail figure is the typical chunk's p99.
  std::vector<double> v;
  for (int c = 0; c < 5; ++c) {
    for (int i = 1; i <= 1000; ++i) v.push_back(c == 2 ? 100.0 + i : i * 0.001);
  }
  Expect(TailLatency(v) == 0.99, "burst chunk does not set the tail");
  std::vector<double> small(v.begin(), v.begin() + 1000);
  Expect(TailLatency(small) == 0.99, "small samples use the plain p99");
}

void TestDeterminism() {
  // Golden request-stream digests for seed 1: a change to the arrival
  // generator, the delay distributions or the RNG in src/ would silently
  // change what every workload sends, so it must fail here instead.
  static const std::pair<const char*, uint64_t> kGolden[] = {
      {"ingest", 0xebdc192ca1c63ceaull},
      {"read", 0x2bb1b9b43ce6a41aull},
      {"mixed", 0xee110eebca76295eull},
  };
  for (const auto& [name, golden] : kGolden) {
    WorkloadSpec spec;
    Expect(FindWorkload(name, &spec), name);
    const auto delay = MakeDelay(spec);
    const uint64_t a = RequestStreamDigest(spec, StreamModel(*delay, 1), 1, 1000);
    const uint64_t b = RequestStreamDigest(spec, StreamModel(*delay, 2), 2, 1000);
    if (a != golden) {
      std::fprintf(stderr, "%s seed 1 digest %016llx\n", name,
                   static_cast<unsigned long long>(a));
    }
    Expect(a == golden, "seed 1 request stream matches its golden digest");
    Expect(a != b, "another seed, another request stream");
  }
  WorkloadSpec spec;
  FindWorkload("mixed", &spec);
  const auto delay = MakeDelay(spec);
  // Each block of the model is a permutation of its timestamps.
  const StreamModel model(*delay, 11);
  std::vector<bool> seen(2 * StreamModel::kBlock, false);
  for (uint64_t i = 0; i < seen.size(); ++i) {
    const Timestamp t = model.TimeAt(1, i);
    Expect(t >= 0 && static_cast<size_t>(t) < seen.size() && !seen[t], "permutation");
    if (t >= 0 && static_cast<size_t>(t) < seen.size()) seen[t] = true;
    Expect(model.ArrivalOf(1, t) == i, "arrival index inverts time");
    if (failures > 0) return;
  }
}

}  // namespace
}  // namespace backsort::perf

int main() {
  using namespace backsort::perf;
  TestMetricNames();
  TestOracle();
  TestSettledOracle();
  TestOpenLoopStall();
  TestPercentiles();
  TestTailLatency();
  TestDeterminism();
  if (failures > 0) {
    std::fprintf(stderr, "%d self-test checks failed\n", failures);
    return 1;
  }
  std::printf("bsn1_selftest: all checks passed\n");
  return 0;
}
