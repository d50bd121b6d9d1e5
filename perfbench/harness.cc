#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "benchkit/digest.h"
#include "common/rng.h"
#include "disorder/series_generator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace backsort::perf {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Nearest rank (1-based) of percentile `p` among `n` samples, in integer
/// arithmetic on tenths of a percent so 99% of 1000 is exactly rank 990.
size_t NearestRank(size_t n, double p) {
  const uint64_t p10 = static_cast<uint64_t>(std::llround(p * 10.0));
  const uint64_t rank = (p10 * n + 999) / 1000;
  return static_cast<size_t>(std::max<uint64_t>(rank, 1));
}

bool SameValue(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// Compares an aggregate answer with the expected fold; `abs_sum` (the
/// sum of the folded values' magnitudes) scales the sum tolerance.
bool SameStats(const TsFileReader::RangeStats& want, double abs_sum,
               const TsFileReader::RangeStats& got, std::string* why) {
  if (got.count != want.count) {
    *why = Fmt("aggregate count %.0f, want %.0f", double(got.count),
               double(want.count));
    return false;
  }
  if (want.count == 0) return true;
  if (got.first_time != want.first_time || got.last_time != want.last_time ||
      !SameValue(got.first, want.first) || !SameValue(got.last, want.last)) {
    *why = Fmt("aggregate first/last mismatch (first_time %.0f, want %.0f)",
               double(got.first_time), double(want.first_time));
    return false;
  }
  if (got.min != want.min || got.max != want.max) {
    *why = Fmt("aggregate min/max %g/%g, want %g", got.min, got.max, want.min);
    return false;
  }
  if (std::fabs(got.sum - want.sum) > 1e-9 * abs_sum + 1e-9) {
    *why = Fmt("aggregate sum %.17g, want %.17g", got.sum, want.sum);
    return false;
  }
  return true;
}

/// Escapes a string for a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

// --- percentiles -------------------------------------------------------------

double TailPercentileFor(size_t n, double cap) {
  static constexpr double kLadder[] = {99.9, 99, 98, 95, 90, 80, 50};
  for (double p : kLadder) {
    if (p > cap) continue;
    const size_t rank = NearestRank(n, p);
    if (n >= rank && n - rank >= 10) return p;
  }
  return 50.0;
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = std::min(NearestRank(values.size(), p), values.size());
  return values[rank - 1];
}

double TailLatency(const std::vector<double>& values) {
  const size_t n = values.size();
  if (n < 2000) {
    std::vector<double> v = values;
    return Percentile(v, TailPercentileFor(n));
  }
  const size_t chunks = n / 1000;
  std::vector<double> tails;
  for (size_t c = 0; c < chunks; ++c) {
    std::vector<double> chunk(values.begin() + static_cast<std::ptrdiff_t>(c * n / chunks),
                              values.begin() + static_cast<std::ptrdiff_t>((c + 1) * n / chunks));
    tails.push_back(Percentile(chunk, TailPercentileFor(chunk.size())));
  }
  return Median(tails);
}

// --- request-stream model ----------------------------------------------------

StreamModel::StreamModel(const DelayDistribution& delay, uint64_t seed)
    : seed_(seed) {
  for (size_t k = 0; k < kPatterns; ++k) {
    Rng rng(SplitMix(seed ^ (0x51ed27a1ULL * (k + 1))));
    const std::vector<Timestamp> ts =
        GenerateArrivalOrderedTimestamps(kBlock, delay, rng);
    perm_[k].resize(kBlock);
    inverse_[k].resize(kBlock);
    prefix_max_[k].resize(kBlock);
    suffix_min_[k].resize(kBlock);
    uint32_t hi = 0;
    for (size_t i = 0; i < kBlock; ++i) {
      perm_[k][i] = static_cast<uint32_t>(ts[i]);
      inverse_[k][perm_[k][i]] = static_cast<uint32_t>(i);
      hi = std::max(hi, perm_[k][i]);
      prefix_max_[k][i] = hi;
    }
    uint32_t lo = UINT32_MAX;
    for (size_t i = kBlock; i-- > 0;) {
      lo = std::min(lo, perm_[k][i]);
      suffix_min_[k][i] = lo;
    }
  }
}

size_t StreamModel::PatternOf(uint32_t s, uint64_t block) const {
  return static_cast<size_t>(
      SplitMix(seed_ ^ SplitMix((uint64_t{s} << 40) ^ block)) % kPatterns);
}

Timestamp StreamModel::TimeAt(uint32_t s, uint64_t arrival) const {
  const uint64_t b = arrival / kBlock;
  return static_cast<Timestamp>(b * kBlock +
                                perm_[PatternOf(s, b)][arrival % kBlock]);
}

uint64_t StreamModel::ArrivalOf(uint32_t s, Timestamp t) const {
  const uint64_t ut = static_cast<uint64_t>(t);
  const uint64_t b = ut / kBlock;
  return b * kBlock + inverse_[PatternOf(s, b)][ut % kBlock];
}

Timestamp StreamModel::MaxTimeBefore(uint32_t s, uint64_t acked) const {
  if (acked == 0) return -1;
  const uint64_t a = acked - 1;
  const uint64_t b = a / kBlock;
  return static_cast<Timestamp>(b * kBlock +
                                prefix_max_[PatternOf(s, b)][a % kBlock]);
}

Timestamp StreamModel::MinTimeFrom(uint32_t s, uint64_t acked) const {
  const uint64_t b = acked / kBlock;
  return static_cast<Timestamp>(b * kBlock +
                                suffix_min_[PatternOf(s, b)][acked % kBlock]);
}

double StreamModel::ValueAt(uint32_t s, Timestamp t) {
  if (t % 1009 == 7) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(s) + static_cast<double>(t % 4096) * 0.25;
}

void StreamModel::FillBatch(uint32_t s, uint64_t first, size_t n,
                            std::vector<TvPairDouble>* out) const {
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Timestamp t = TimeAt(s, first + i);
    (*out)[i] = TvPairDouble{t, ValueAt(s, t)};
  }
}

uint64_t StreamModel::Digest() const {
  uint64_t h = bench::FnvBytes(&seed_, sizeof(seed_));
  for (const auto& p : perm_) h = bench::FnvBytes(p.data(), p.size() * sizeof(p[0]), h);
  return h;
}

std::string SensorName(uint32_t s) { return "root.bench.d" + std::to_string(s); }

// --- oracle ------------------------------------------------------------------

bool CheckQuery(const StreamModel& model, const Visibility& vis,
                Timestamp t_min, Timestamp t_max,
                const std::vector<TvPairDouble>& got, std::string* why) {
  size_t seen_acked = 0;
  Timestamp prev = std::numeric_limits<Timestamp>::min();
  for (const TvPairDouble& p : got) {
    if (p.t < t_min || p.t > t_max || p.t < 0) {
      *why = Fmt("query point t=%.0f outside [%.0f, %.0f]", double(p.t),
                 double(t_min), double(t_max));
      return false;
    }
    if (p.t <= prev) {
      *why = Fmt("query result unsorted or duplicated at t=%.0f", double(p.t));
      return false;
    }
    prev = p.t;
    const uint64_t a = model.ArrivalOf(vis.sensor, p.t);
    if (a >= vis.sent) {
      *why = Fmt("query returned t=%.0f, which was never sent", double(p.t));
      return false;
    }
    if (!SameValue(p.v, StreamModel::ValueAt(vis.sensor, p.t))) {
      *why = Fmt("query value mismatch at t=%.0f: got %g", double(p.t), p.v);
      return false;
    }
    if (a < vis.acked) ++seen_acked;
  }
  size_t want = 0;
  const Timestamp hi = std::min(t_max, model.MaxTimeBefore(vis.sensor, vis.acked));
  for (Timestamp t = std::max<Timestamp>(t_min, 0); t <= hi; ++t) {
    if (model.ArrivalOf(vis.sensor, t) < vis.acked) ++want;
  }
  if (seen_acked != want) {
    *why = Fmt("query returned %.0f of %.0f acknowledged points in range",
               double(seen_acked), double(want));
    return false;
  }
  return true;
}

bool CheckAggregate(const StreamModel& model, const Visibility& vis,
                    Timestamp t_min, Timestamp t_max,
                    const TsFileReader::RangeStats& got, std::string* why) {
  TsFileReader::RangeStats want;
  want.min = std::numeric_limits<double>::infinity();
  want.max = -std::numeric_limits<double>::infinity();
  double abs_sum = 0.0;
  const Timestamp hi = std::min(t_max, model.MaxTimeBefore(vis.sensor, vis.acked));
  for (Timestamp t = std::max<Timestamp>(t_min, 0); t <= hi; ++t) {
    if (model.ArrivalOf(vis.sensor, t) >= vis.acked) continue;
    const double v = StreamModel::ValueAt(vis.sensor, t);
    if (want.count == 0) {
      want.first_time = t;
      want.first = v;
    }
    want.last_time = t;
    want.last = v;
    ++want.count;
    if (!std::isnan(v)) {
      want.min = std::min(want.min, v);
      want.max = std::max(want.max, v);
      want.sum += v;
      abs_sum += std::fabs(v);
    }
  }
  return SameStats(want, abs_sum, got, why);
}

bool CheckLatest(const StreamModel& model, const Visibility& vis,
                 const TvPairDouble& got, std::string* why) {
  if (got.t < model.MaxTimeBefore(vis.sensor, vis.acked) || got.t < 0) {
    *why = Fmt("latest t=%.0f older than acknowledged t=%.0f", double(got.t),
               double(model.MaxTimeBefore(vis.sensor, vis.acked)));
    return false;
  }
  if (model.ArrivalOf(vis.sensor, got.t) >= vis.sent) {
    *why = Fmt("latest t=%.0f was never sent", double(got.t));
    return false;
  }
  if (!SameValue(got.v, StreamModel::ValueAt(vis.sensor, got.t))) {
    *why = Fmt("latest value mismatch at t=%.0f", double(got.t));
    return false;
  }
  return true;
}

SettledOracle::SettledOracle(const StreamModel& model,
                             const std::vector<uint64_t>& acked)
    : sensors_(acked.size()) {
  for (uint32_t s = 0; s < acked.size(); ++s) {
    Sensor& x = sensors_[s];
    x.newest = model.MaxTimeBefore(s, acked[s]);
    x.words.resize(static_cast<size_t>((x.newest + 1) / 64) + 1);
    for (uint64_t a = 0; a < acked[s]; ++a) {
      const auto t = static_cast<uint64_t>(model.TimeAt(s, a));
      x.words[t / 64].bits |= uint64_t{1} << (t % 64);
    }
    uint64_t before = 0;
    for (size_t w = 0; w < x.words.size(); ++w) {
      Word& word = x.words[w];
      word.before = before;
      before += static_cast<uint64_t>(__builtin_popcountll(word.bits));
      word.min = std::numeric_limits<double>::infinity();
      word.max = -std::numeric_limits<double>::infinity();
      for (uint64_t b = word.bits; b != 0; b &= b - 1) {
        const double v = StreamModel::ValueAt(
            s, static_cast<Timestamp>(w * 64 + __builtin_ctzll(b)));
        if (std::isnan(v)) continue;
        word.sum += v;
        word.min = std::min(word.min, v);
        word.max = std::max(word.max, v);
      }
    }
  }
}

uint64_t SettledOracle::Rank(const Sensor& x, Timestamp t) {
  const Word& w = x.words[static_cast<size_t>(t / 64)];
  const uint64_t below = (uint64_t{1} << (t % 64)) - 1;
  return w.before + static_cast<uint64_t>(__builtin_popcountll(w.bits & below));
}

bool SettledOracle::Clip(const Sensor& x, Timestamp* lo, Timestamp* hi) {
  *lo = std::max<Timestamp>(*lo, 0);
  *hi = std::min(*hi, x.newest);
  return *lo <= *hi;
}

bool SettledOracle::CheckQuery(uint32_t s, Timestamp t_min, Timestamp t_max,
                               const std::vector<TvPairDouble>& got,
                               std::string* why) const {
  const Sensor& x = sensors_[s];
  Timestamp prev = std::numeric_limits<Timestamp>::min();
  for (const TvPairDouble& p : got) {
    if (p.t < t_min || p.t > t_max || p.t < 0 || p.t > x.newest) {
      *why = Fmt("query point t=%.0f outside [%.0f, %.0f] or never written",
                 double(p.t), double(t_min), double(t_max));
      return false;
    }
    if (p.t <= prev) {
      *why = Fmt("query result unsorted or duplicated at t=%.0f", double(p.t));
      return false;
    }
    prev = p.t;
    if ((x.words[static_cast<size_t>(p.t / 64)].bits >> (p.t % 64) & 1) == 0) {
      *why = Fmt("query returned t=%.0f, which was never acknowledged", double(p.t));
      return false;
    }
    if (!SameValue(p.v, StreamModel::ValueAt(s, p.t))) {
      *why = Fmt("query value mismatch at t=%.0f: got %g", double(p.t), p.v);
      return false;
    }
  }
  // Every returned point is a distinct visible one in range, so equal
  // counts mean the answer is the whole visible set.
  Timestamp lo = t_min, hi = t_max;
  const uint64_t want = Clip(x, &lo, &hi) ? Rank(x, hi + 1) - Rank(x, lo) : 0;
  if (got.size() != want) {
    *why = Fmt("query returned %.0f of %.0f acknowledged points in range",
               double(got.size()), double(want));
    return false;
  }
  return true;
}

bool SettledOracle::CheckAggregate(uint32_t s, Timestamp t_min, Timestamp t_max,
                                   const TsFileReader::RangeStats& got,
                                   std::string* why) const {
  const Sensor& x = sensors_[s];
  TsFileReader::RangeStats want;
  want.min = std::numeric_limits<double>::infinity();
  want.max = -std::numeric_limits<double>::infinity();
  double abs_sum = 0.0;
  Timestamp lo = t_min, hi = t_max;
  if (!Clip(x, &lo, &hi)) return SameStats(want, abs_sum, got, why);
  // Whole words from their summaries, the partial words at either end
  // point by point. Values are never negative, so |sum| is the magnitude.
  const size_t first_word = static_cast<size_t>(lo / 64);
  const size_t last_word = static_cast<size_t>(hi / 64);
  for (size_t w = first_word; w <= last_word; ++w) {
    const Word& word = x.words[w];
    uint64_t bits = word.bits;
    if (w == first_word) bits &= ~uint64_t{0} << (lo % 64);
    if (w == last_word) bits &= ~uint64_t{0} >> (63 - hi % 64);
    if (bits == 0) continue;
    const auto base = static_cast<Timestamp>(w * 64);
    if (want.count == 0) want.first_time = base + __builtin_ctzll(bits);
    want.last_time = base + 63 - __builtin_clzll(bits);
    want.count += static_cast<uint64_t>(__builtin_popcountll(bits));
    if (bits == word.bits) {
      want.sum += word.sum;
      abs_sum += word.sum;
      want.min = std::min(want.min, word.min);
      want.max = std::max(want.max, word.max);
      continue;
    }
    for (uint64_t b = bits; b != 0; b &= b - 1) {
      const double v = StreamModel::ValueAt(s, base + __builtin_ctzll(b));
      if (std::isnan(v)) continue;
      want.sum += v;
      abs_sum += v;
      want.min = std::min(want.min, v);
      want.max = std::max(want.max, v);
    }
  }
  if (want.count > 0) {
    want.first = StreamModel::ValueAt(s, want.first_time);
    want.last = StreamModel::ValueAt(s, want.last_time);
  }
  return SameStats(want, abs_sum, got, why);
}

bool SettledOracle::CheckLatest(uint32_t s, const TvPairDouble& got,
                                std::string* why) const {
  const Sensor& x = sensors_[s];
  if (got.t != x.newest) {
    *why = Fmt("latest t=%.0f, want the newest acknowledged t=%.0f",
               double(got.t), double(x.newest));
    return false;
  }
  if (!SameValue(got.v, StreamModel::ValueAt(s, got.t))) {
    *why = Fmt("latest value mismatch at t=%.0f", double(got.t));
    return false;
  }
  return true;
}

// --- spans -------------------------------------------------------------------

void Tracer::Absorb(const Tracer& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, std::vector<double>> SelfTimesNs(
    const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns - child_ns[i]));
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\trequest\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%llu\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

// --- results -----------------------------------------------------------------

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit) {
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string MetricTable::Lines() const {
  std::string out;
  char buf[256];
  for (const auto& [name, vu] : values_) {
    std::snprintf(buf, sizeof(buf), "%-40s %16.6f %s\n", name.c_str(),
                  vu.first, vu.second.c_str());
    out += buf;
  }
  return out;
}

std::string MetricTable::Json() const {
  std::string out = "{";
  char buf[512];
  bool first = true;
  for (const auto& [name, vu] : values_) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    out += buf;
    first = false;
  }
  return out + "}";
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(
          static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

std::string HostBlockJson(const std::string& dir, const std::string& source_id) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }

  // fsync latency: 16 appends of 4 KiB, each followed by fsync.
  std::vector<double> fsync_us;
  const std::string probe = dir + "/fsync_probe";
  std::vector<char> page(4096, 'x');
  int fd = ::open(probe.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd >= 0) {
    for (int i = 0; i < 16; ++i) {
      if (::write(fd, page.data(), page.size()) < 0) break;
      const int64_t t0 = NowNs();
      if (::fsync(fd) != 0) break;
      fsync_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    ::close(fd);
  }
  ::unlink(probe.c_str());

  // Sequential read of a freshly written 32 MiB file (page-cache warm).
  double read_mb_s = 0.0;
  const std::string seq = dir + "/seqread_probe";
  std::vector<char> chunk(1 << 20, 'y');
  const size_t chunks = 32;
  fd = ::open(seq.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  bool wrote = fd >= 0;
  for (size_t i = 0; wrote && i < chunks; ++i) {
    wrote = ::write(fd, chunk.data(), chunk.size()) ==
            static_cast<ssize_t>(chunk.size());
  }
  if (fd >= 0) ::close(fd);
  fd = wrote ? ::open(seq.c_str(), O_RDONLY) : -1;
  if (fd >= 0) {
    const int64_t t0 = NowNs();
    size_t total = 0;
    for (ssize_t n; (n = ::read(fd, chunk.data(), chunk.size())) > 0;) {
      total += static_cast<size_t>(n);
    }
    const double s = static_cast<double>(NowNs() - t0) / 1e9;
    read_mb_s = s > 0 ? static_cast<double>(total) / (1 << 20) / s : 0.0;
    ::close(fd);
  }
  ::unlink(seq.c_str());

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"cpu_model\": \"%s\", \"compiler\": \"gcc %s\", "
      "\"build_type\": \"%s\", \"source\": \"%s\", \"fsync_p50_us\": %.3f, "
      "\"seq_read_mb_s\": %.1f}",
      ::sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(cpu).c_str(), __VERSION__,
      PERFBENCH_BUILD_TYPE, JsonEscape(source_id).c_str(), Median(fsync_us),
      read_mb_s);
  return buf;
}

double CpuStealShare() {
  static uint64_t last_total = 0, last_steal = 0;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t total = 0, steal = 0, v = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    total += v;
    if (i == 7) steal = v;  // user nice system idle iowait irq softirq steal
  }
  const double share =
      total > last_total
          ? static_cast<double>(steal - last_steal) / static_cast<double>(total - last_total)
          : 0.0;
  last_total = total;
  last_steal = steal;
  return share;
}

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace backsort::perf
