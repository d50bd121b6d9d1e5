#ifndef BACKSORT_ENGINE_COMPACTION_H_
#define BACKSORT_ENGINE_COMPACTION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/chunk_cache.h"
#include "common/status.h"
#include "engine/file_registry.h"
#include "engine/lww_merge.h"
#include "tsfile/tsfile.h"

namespace backsort {

class FlushPool;
class StorageEngine;

/// Resolved tiered-compaction tuning. StorageEngine builds one from
/// EngineOptions, where each nonzero compaction option overrides the
/// default below, and hands it to the planner, jobs and scheduler.
struct CompactionConfig {
  static constexpr size_t kDefaultMaxFanin = 8;
  static constexpr double kDefaultTierRatio = 4.0;
  static constexpr size_t kDefaultTriggerFiles = 4;
  static constexpr size_t kDefaultCheckIntervalMs = 250;
  /// Upper size bound of tier 0; each tier above covers `tier_ratio`
  /// times the previous one's range. Small enough that freshly flushed
  /// bench/test files land in tier 0 and tier together.
  static constexpr uint64_t kTierBaseBytes = 64u << 10;  // 64 KiB

  std::string data_dir;
  size_t max_fanin = kDefaultMaxFanin;
  double tier_ratio = kDefaultTierRatio;
  size_t trigger_files = kDefaultTriggerFiles;
  size_t points_per_page = 1024;
  size_t check_interval_ms = kDefaultCheckIntervalMs;
  /// Whether merge outputs carry per-chunk value statistics (BSTF2).
  /// Mirrors EngineOptions::footer_stats; statistics are always recomputed
  /// from the surviving points during the merge, never copied from inputs
  /// (LWW dedup may drop points the input stats counted).
  bool footer_stats = true;
};

/// Splits a sealed-file name — "<seq|unseq>-<base>.bstf" for flush
/// outputs, "<seq|unseq>-<base>g<gen>.bstf" for compaction outputs —
/// into its base id token (the digits allocated when the original flush
/// published) and its compaction generation (0 for flush outputs).
/// Returns InvalidArgument for anything else.
Status ParseSealedFileName(const std::string& filename, std::string* base,
                           size_t* gen);

/// Derives a compaction output's file name from the window's FIRST
/// (oldest) input: same base token, generation + 1, prefix from
/// `sequence_output`. Because recovery rebuilds query priority by
/// sorting file names, the output must sort exactly where the window
/// sat in the registry list; "<base>g<gen+1>" sorts after every name
/// with that base and generation <= gen and before every larger base,
/// i.e. inside the gap the window leaves behind. A fresh max id (the
/// old scheme) would instead sort the output AFTER unsequence files
/// that were flushed later and must shadow it — stale reads after
/// reopen. The name is deterministic per window, so a crashed-then-
/// retried job reproduces (and atomically replaces) its own output.
Status CompactionOutputName(const std::string& first_input_filename,
                            bool sequence_output, std::string* out_name);

/// One planned merge: a CONTIGUOUS window [begin, begin + inputs.size())
/// of the engine-wide creation-order file list. Contiguity is a
/// correctness requirement, not a heuristic: query-time last-write-wins
/// resolves equal timestamps by list order, so merging a non-contiguous
/// subset could hoist an older file's value past an unmerged newer file
/// (or vice versa). Replacing a contiguous window with its merge at the
/// same position preserves every file's order relative to every
/// non-input file — per-shard consult lists are order-preserving
/// subsequences of the engine list, so they stay consistent too.
struct CompactionPlan {
  std::vector<SealedFileRef> inputs;
  /// On-disk byte size per input, parallel to `inputs`.
  std::vector<uint64_t> input_bytes;
  /// Window start in the planning snapshot of the creation-order list.
  /// Stable until the swap because compaction runs serialized and
  /// concurrent flushes only append.
  size_t begin = 0;
  /// Size tier the inputs share (informational; PlanFull and PlanTiered's
  /// fewest-bytes window leave it 0).
  size_t tier = 0;
  /// Whether the output may carry the "seq-" name (and so stay eligible
  /// for the aggregation statistics fast path): all inputs are sequence
  /// files, or the window covers the entire file list — in which case
  /// the merge IS the total LWW resolution and its output is totally
  /// ordered with no shadowing possible.
  bool sequence_output = false;

  bool empty() const { return inputs.size() < 2; }
};

/// Groups the sealed-file registry into size tiers and picks the next
/// bounded-fan-in merge. Stateless; every method is const.
class CompactionPlanner {
 public:
  explicit CompactionPlanner(const CompactionConfig& config)
      : config_(config) {}

  /// Tier of a file of `bytes`: 0 for anything up to kTierBaseBytes,
  /// +1 per tier_ratio beyond.
  size_t TierOf(uint64_t bytes) const;

  /// Sealed files a fully compacted engine holding `total_bytes` may
  /// stably accumulate before the planner triggers again: fewer than
  /// `trigger_files` per occupied tier. The soak bench and ci.sh gate
  /// post-compaction file counts against this.
  size_t StableFileBound(uint64_t total_bytes) const;

  /// Plans one tiered merge over the creation-order file list (`sizes`
  /// parallel, on-disk bytes): finds runs of consecutive same-tier files,
  /// and when some tier has a run of at least `trigger_files`, returns
  /// its oldest `max_fanin` files (smallest tier wins ties — that is
  /// where churn concentrates). When no run triggers but the list holds
  /// more than StableFileBound files, returns the contiguous `max_fanin`
  /// window with the fewest bytes. Otherwise returns an empty plan.
  CompactionPlan PlanTiered(const std::vector<SealedFileRef>& files,
                            const std::vector<uint64_t>& sizes) const;

  /// Plans one window of a full compaction: the files [begin, begin +
  /// min(max_fanin, limit - begin)), regardless of tiers; empty when that
  /// is fewer than two. Compact() steps such windows across the list,
  /// then starts the next level at 0, until one file is left. `limit`
  /// caps the windows so a full compaction started over N files never
  /// chases files flushed after it began.
  CompactionPlan PlanFull(const std::vector<SealedFileRef>& files,
                          const std::vector<uint64_t>& sizes, size_t begin = 0,
                          size_t limit = static_cast<size_t>(-1)) const;

 private:
  CompactionPlan WindowPlan(const std::vector<SealedFileRef>& files,
                            const std::vector<uint64_t>& sizes, size_t begin,
                            size_t count) const;

  CompactionConfig config_;
};

/// Per-job outcome, for metrics and the streaming-memory tests.
struct CompactionStats {
  size_t input_files = 0;
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;
  /// Points surviving last-write-wins dedup across all sensors.
  size_t output_points = 0;
  size_t sensors = 0;
  /// Peak decoded points resident at any instant of one sensor's merge,
  /// over the job's merges: the cursors' decoded pages + the output page
  /// being built + the lookahead point (+ the one page being copied). The
  /// streaming bound — independent of input size. A job runs at most
  /// `workers` merges at once, so its decoded points stay within workers
  /// times this.
  size_t max_resident_points = 0;
  /// Input pages written out byte for byte under a fresh header, and
  /// input pages that went through the last-write-wins merge.
  size_t pages_copied = 0;
  size_t pages_merged = 0;
  /// Merges that ran at the same time: the job's worker count.
  size_t workers = 0;
};

/// Merges one plan's input files into a single fresh sealed file, one
/// sensor chunk per merge. Every input chunk is read page by page through
/// a PageReader (the query path's reader, so a chunk a query would reject
/// fails the job), in one streaming loser-tree k-way merge per sensor,
/// deduplicated last-write-wins across sequence/unsequence inputs (higher
/// window position = newer wins). A page that no point of any other page
/// falls inside is copied rather than merged (see MergeSensor), so late
/// points cost only the pages they land in.
///
/// The sensors merge in parallel on one worker per hardware thread, the
/// calling thread among them. A worker claims the next sensor in name
/// order, merges it into its own ChunkBuilder, and waits for its turn to
/// append: the writer takes the chunks in name order, so the file bytes
/// do not depend on the worker count. Each worker holds one chunk at a
/// time, so a job holds at most `workers` encoded chunks plus
/// workers x (fan-in + 1) decoded pages, and each input's page directory
/// (derived on open from one transient read of its chunk) for the merges
/// in flight: bounded by the largest sensor chunks, never by the output
/// file or the dataset. Flushes go first: while one is queued on `pool`,
/// the helper workers stop claiming and the calling thread finishes the
/// job alone, as on a one-core host. The first failure stops all
/// claiming.
///
/// The output is written to "<name>.tmp", fsync'd, and atomically renamed
/// (with a directory fsync) BEFORE the swap can unlink the durable
/// inputs; on any error the temporary is removed and nothing else has
/// changed. The output name derives from the window's first input
/// (CompactionOutputName), so recovery's name sort keeps it at the
/// window's list position.
class CompactionJob {
 public:
  /// `cache` (nullable) is warmed with the output's footer on success.
  /// `pool` (nullable) is the flush queue the helper workers yield to.
  CompactionJob(const CompactionConfig& config, ChunkCache* cache,
                const FlushPool* pool = nullptr);

  /// Runs the merge. On success `*out_meta` is the new sealed file
  /// (registered nowhere yet — the engine swaps it in). On failure the
  /// returned status describes the first error, `*out_meta` is null, and
  /// no temporary output remains.
  Status Run(const CompactionPlan& plan, SealedFileRef* out_meta,
             CompactionStats* stats);

 private:
  friend struct CompactionJobTestPeer;  // pins workers_ in tests

  struct SensorSource {
    size_t input;  // index into plan.inputs = LWW priority (higher wins)
    ChunkLocator locator;
  };

  /// Builds one sensor's chunk with one read-side merge (lww_merge.h)
  /// over all its sources. A clean page whose encodings are the output's
  /// and that fits an output page is decoded once, checked, and its
  /// buffers copied under a header rebuilt from its points (a repeated
  /// timestamp inside it makes it one merged page instead). Every other
  /// point is merged and re-encoded. Touches nothing shared, so merges of
  /// different sensors run at the same time.
  Status MergeSensor(const CompactionPlan& plan,
                     const std::vector<SensorSource>& sources,
                     const std::string& sensor, ChunkBuilder* chunk,
                     CompactionStats* stats) const;

  CompactionConfig config_;
  ChunkCache* cache_;
  const FlushPool* pool_;
  /// Merge workers, the calling thread included: the host's hardware
  /// threads.
  size_t workers_;
};

/// Background thread that keeps the registry tiered: wakes every
/// check_interval_ms, yields whenever foreground flushes are queued
/// (compaction is maintenance — ingest goes first), and otherwise runs
/// StorageEngine::CompactStep until the planner finds nothing to do.
/// A failing step (e.g. a corrupted input the planner keeps picking)
/// backs the scheduler off exponentially — doubling the skipped ticks
/// per consecutive failing cycle up to a cap — instead of re-running
/// the full merge I/O every tick forever; the backoff resets as soon
/// as a step succeeds or the sealed-file count changes (new flushes or
/// an explicit compaction may have changed the plan). Started by the
/// engine when compaction_enabled; Stop() (engine shutdown, before the
/// flush pool stops) finishes any in-flight job and joins.
class CompactionScheduler {
 public:
  CompactionScheduler(StorageEngine* engine, FlushPool* pool,
                      size_t check_interval_ms)
      : engine_(engine), pool_(pool), interval_ms_(check_interval_ms) {}
  ~CompactionScheduler() { Stop(); }

  CompactionScheduler(const CompactionScheduler&) = delete;
  CompactionScheduler& operator=(const CompactionScheduler&) = delete;

  void Start();
  /// Idempotent; returns with the thread joined.
  void Stop();

 private:
  void Loop();

  StorageEngine* engine_;
  FlushPool* pool_;
  size_t interval_ms_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace backsort

#endif  // BACKSORT_ENGINE_COMPACTION_H_
