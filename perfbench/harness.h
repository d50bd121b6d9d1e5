#ifndef BACKSORT_PERFBENCH_HARNESS_H_
#define BACKSORT_PERFBENCH_HARNESS_H_

// Building blocks of the BSN1 benchmark (perfbench/README.md): the
// seeded request-stream model and its answer oracle, tail percentiles,
// the open-loop scheduler, in-memory spans, the metric table and the
// host/config block. Everything here is client-side; the engine only
// ever sees the requests the model generates.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "disorder/delay_distribution.h"
#include "tsfile/tsfile.h"

namespace backsort::perf {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- percentiles -------------------------------------------------------------

/// The tail percentile a sample of `n` values can support: the highest
/// rung of {99.9, 99, 98, 95, 90, 80, 50} (capped at `cap`) with at least
/// ten samples beyond it. Falls back to 50 for tiny samples.
double TailPercentileFor(size_t n, double cap = 99.0);

/// Nearest-rank percentile `p` in [0, 100] of `values` (sorted in place).
/// 0 when empty.
double Percentile(std::vector<double>& values, double p);

/// The tail figure reported for a latency sample in completion order:
/// below 2000 samples, the TailPercentileFor percentile of the whole
/// sample; otherwise the median, over consecutive chunks of at least 1000
/// samples, of each chunk's p99, so one burst of background work does not
/// set the figure alone.
double TailLatency(const std::vector<double>& values);

/// Median of `values` (sorted in place); 0 when empty.
inline double Median(std::vector<double>& values) {
  return Percentile(values, 50.0);
}

// --- request-stream model ----------------------------------------------------

/// The seeded arrival model every workload draws its writes from. Sensor
/// s's stream covers generation timestamps 0, 1, 2, ... in blocks of
/// kBlock; block b arrives in the order of one of kPatterns delay
/// permutations (paper Definition 5: point i arrives at i + tau_i), picked
/// by a hash of (seed, s, b). Timestamps are unique per sensor and the
/// value of a point is a pure function of (sensor, t), so the oracle needs
/// no copy of the written data: "which points are acknowledged" is fully
/// described by how many arrivals of each sensor were acknowledged.
class StreamModel {
 public:
  static constexpr uint64_t kBlock = 1u << 16;
  static constexpr size_t kPatterns = 4;

  StreamModel(const DelayDistribution& delay, uint64_t seed);

  /// Generation timestamp of sensor `s`'s `arrival`-th point.
  Timestamp TimeAt(uint32_t s, uint64_t arrival) const;
  /// Arrival index of timestamp `t` (t >= 0) in sensor `s`'s stream.
  uint64_t ArrivalOf(uint32_t s, Timestamp t) const;
  /// Largest timestamp among the first `acked` arrivals; -1 when 0.
  Timestamp MaxTimeBefore(uint32_t s, uint64_t acked) const;
  /// Smallest timestamp not among the first `acked` arrivals.
  Timestamp MinTimeFrom(uint32_t s, uint64_t acked) const;

  /// Point value: a ramp per sensor, NaN at every 1009th timestamp so the
  /// aggregation NaN contract is exercised.
  static double ValueAt(uint32_t s, Timestamp t);

  /// Arrivals [first, first + n) of sensor `s`, in arrival order.
  void FillBatch(uint32_t s, uint64_t first, size_t n,
                 std::vector<TvPairDouble>* out) const;

  /// FNV-1a digest of the seed and the permutations (the whole stream is a
  /// function of them).
  uint64_t Digest() const;

 private:
  size_t PatternOf(uint32_t s, uint64_t block) const;

  uint64_t seed_;
  std::array<std::vector<uint32_t>, kPatterns> perm_;        // arrival -> t
  std::array<std::vector<uint32_t>, kPatterns> inverse_;     // t -> arrival
  std::array<std::vector<uint32_t>, kPatterns> prefix_max_;  // over arrivals
  std::array<std::vector<uint32_t>, kPatterns> suffix_min_;  // over arrivals
};

/// Name of the s-th sensor on the wire.
std::string SensorName(uint32_t s);

// --- oracle ------------------------------------------------------------------

/// What a read may see of sensor `sensor`: every arrival below `acked` was
/// acknowledged before the request was sent, so it must be visible; no
/// arrival at or beyond `sent` had been sent when the response arrived, so
/// it must not be. With no concurrent writer, acked == sent.
struct Visibility {
  uint32_t sensor = 0;
  uint64_t acked = 0;
  uint64_t sent = 0;
};

/// Query answer: sorted, duplicate-free, inside [t_min, t_max], values
/// exact (NaN matches NaN), and exactly the last-write-wins set the
/// visibility bounds admit. `why` gets the first violation.
bool CheckQuery(const StreamModel& model, const Visibility& vis,
                Timestamp t_min, Timestamp t_max,
                const std::vector<TvPairDouble>& got, std::string* why);

/// AggregateFast answer against a brute-force fold over the range under
/// the NaN contract (NaN counted and eligible as first/last, excluded from
/// min/max/sum). The range must be settled: every point in it below
/// `vis.acked`.
bool CheckAggregate(const StreamModel& model, const Visibility& vis,
                    Timestamp t_min, Timestamp t_max,
                    const TsFileReader::RangeStats& got, std::string* why);

/// GetLatest answer: no older than the newest acknowledged point, sent
/// before the response, and carrying that timestamp's value.
bool CheckLatest(const StreamModel& model, const Visibility& vis,
                 const TvPairDouble& got, std::string* why);

/// The same checks for reads of settled data (no write in flight), at a
/// cost that keeps the oracle out of the measured loop: built once from
/// each sensor's acknowledged arrival count, it keeps a visibility bitmap
/// over [0, newest acknowledged t] and, per 64-timestamp word, the visible
/// count before the word and the sum, min and max of the word's points. A
/// Query check costs O(answer size), an AggregateFast check O(range / 64),
/// a GetLatest check O(1). The brute-force checks above stay for reads
/// that race a writer, and as the reference the self-test compares
/// against.
class SettledOracle {
 public:
  SettledOracle(const StreamModel& model, const std::vector<uint64_t>& acked);

  bool CheckQuery(uint32_t s, Timestamp t_min, Timestamp t_max,
                  const std::vector<TvPairDouble>& got, std::string* why) const;
  bool CheckAggregate(uint32_t s, Timestamp t_min, Timestamp t_max,
                      const TsFileReader::RangeStats& got, std::string* why) const;
  bool CheckLatest(uint32_t s, const TvPairDouble& got, std::string* why) const;

 private:
  struct Word {
    uint64_t bits = 0;    ///< visible timestamps 64w .. 64w+63
    uint64_t before = 0;  ///< visible timestamps below 64w
    double sum = 0;       ///< over the word's non-NaN values
    double min = 0;
    double max = 0;
  };
  struct Sensor {
    Timestamp newest = -1;
    std::vector<Word> words;  ///< one past newest's word, as a rank sentinel
  };
  /// Visible timestamps of sensor `x` below `t` (0 <= t <= newest + 1).
  static uint64_t Rank(const Sensor& x, Timestamp t);
  /// The range clipped to [0, newest]; false when empty.
  static bool Clip(const Sensor& x, Timestamp* lo, Timestamp* hi);

  std::vector<Sensor> sensors_;
};

// --- open loop ---------------------------------------------------------------

/// Timing of one open-loop request, steady-clock nanoseconds.
struct OpTiming {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  /// Latency as a user sees it: from when the request was due, so a stall
  /// also charges the requests queued behind it.
  double latency_ms() const { return static_cast<double>(done_ns - due_ns) / 1e6; }
  double late_ms() const { return static_cast<double>(sent_ns - due_ns) / 1e6; }
};

/// Issues call(i) at due times start + i / rate until `seconds` have
/// elapsed, never earlier than due and immediately when behind. Returns
/// one timing per issued call.
template <typename Call>
std::vector<OpTiming> RunOpenLoop(double rate_per_s, double seconds,
                                  Call&& call) {
  std::vector<OpTiming> out;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const double period_ns = 1e9 / rate_per_s;
  for (uint64_t i = 0;; ++i) {
    OpTiming t;
    t.due_ns = start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    if (t.due_ns >= end) break;
    const int64_t now = NowNs();
    if (now < t.due_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t.due_ns - now));
    }
    t.sent_ns = NowNs();
    call(i);
    t.done_ns = NowNs();
    out.push_back(t);
  }
  return out;
}

// --- spans -------------------------------------------------------------------

/// One timed call: a client RPC or a replayed layer call.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the same tracer, -1 = root
  uint64_t request = 0;
};

/// Per-thread in-memory span log; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}
  int64_t Begin(const char* name, uint64_t request, int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Absorb(const Tracer& other);

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Self time (duration minus the time its children cover) of every span,
/// grouped by span name, in nanoseconds.
std::map<std::string, std::vector<double>> SelfTimesNs(
    const std::vector<Span>& spans);

/// Writes spans as tab-separated lines (name, start, end, parent, request).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// --- results -----------------------------------------------------------------

/// Ordered metric table of one run.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const { return values_.at(name).first; }
  /// Human-readable "name value unit" lines.
  std::string Lines() const;
  /// JSON object {"name": {"value": v, "unit": u}, ...}.
  std::string Json() const;
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// A metric name BENCHMARK.json allows: 1-64 of [A-Za-z0-9_.-], starting
/// with a letter or digit.
bool ValidMetricName(const std::string& name);

/// Host block: cores, CPU model, compiler, build type, source id, and a
/// measured fsync p50 and sequential read rate in `dir`. One JSON object.
std::string HostBlockJson(const std::string& dir, const std::string& source_id);

/// Share of all CPU time the hypervisor stole from this host since the
/// previous call (the first call starts the interval), from /proc/stat; a
/// high figure marks a run measured while the host was oversubscribed.
double CpuStealShare();

/// Peak resident set of this process, MiB.
double PeakRssMb();

}  // namespace backsort::perf

#endif  // BACKSORT_PERFBENCH_HARNESS_H_
