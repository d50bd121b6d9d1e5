#ifndef BACKSORT_ENGINE_WAL_H_
#define BACKSORT_ENGINE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "encoding/bytes.h"

namespace backsort {

/// One recovered WAL record: a single ingested point.
struct WalRecord {
  std::string sensor;
  Timestamp t = 0;
  double v = 0.0;
};

/// Append-only write-ahead log segment. Each record is framed as
///   [payload size : fixed32][crc32(payload) : fixed32][payload]
/// Recovery replays records until the first frame whose size or CRC does
/// not check out, so a torn tail never poisons the frames before it.
///
/// Crash-loss window. AppendBatch hands each frame to a stdio buffer (one
/// st_blksize, 4 KiB with glibc on common filesystems); a frame larger
/// than the buffer goes out in whole blocks, but glibc still keeps its
/// remainder there. Until Sync() runs, a process crash therefore loses
/// every frame that buffer holds — possibly many acknowledged group
/// commits, plus the torn frame whose head already reached the file — not
/// just the last record. With EngineOptions::sync_wal_every_write each
/// write is synced before it is acknowledged; without `fsync_on_sync` a
/// power cut can still lose what the kernel has not written back.
/// (WalTest.TornTailLosesOnlyLastRecord truncates a closed file; it
/// models a torn final write, not a process death.)
///
/// Format versioning. A fresh segment starts with a 5-byte header, magic
/// "BWAL" + version byte 2, and every v2 payload then begins with a record
/// type byte:
///   point (1): sensor (length-prefixed) + fixed64 time + fixed64 value bits
///   batch (2): group count (varint), then per group
///              sensor (length-prefixed) + point count (varint) +
///              count x (fixed64 time, fixed64 value bits) — a point run
///              in the layout of PutPoints/GetPoints (encoding/bytes.h)
/// The batch record is the group commit of the write path: one frame, one
/// CRC, one buffered write for a whole multi-sensor batch, and the only
/// record the writer emits (a single point is a one-point batch). Point
/// records are replay-only: segments written before the write paths were
/// unified still carry them.
/// Legacy (pre-versioning) segments have no header and bare point payloads;
/// ReadWal sniffs the header and parses either format, so WALs written
/// before the version byte existed still replay. (The magic cannot collide
/// with a legacy frame: it would decode as a ~1.2 GB payload size, which no
/// legacy segment ever carried.)
///
/// The segment is an fd-backed stdio stream, so Sync() has two strengths:
/// by default it flushes the user-space buffer into the OS page cache
/// (survives a process crash, not a power cut); with `fsync_on_sync` it
/// additionally issues ::fsync, pushing the segment to the device
/// (EngineOptions::wal_fsync — durable but an order of magnitude slower;
/// tradeoff in DESIGN.md's WAL section).
class WalWriter {
 public:
  explicit WalWriter(std::string path, bool fsync_on_sync = false)
      : path_(std::move(path)), fsync_on_sync_(fsync_on_sync) {}
  ~WalWriter() { (void)Close(); }

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (or creates) the segment for appending; a brand-new segment
  /// gets the v2 format header.
  Status Open();

  /// Appends one group-commit batch record covering every non-empty group:
  /// one frame and one CRC however many sensors and points the batch
  /// spans. Empty groups are skipped; an all-empty batch writes nothing.
  /// Buffered; call Sync() to force it to the OS (and, in fsync mode, to
  /// the device).
  Status AppendBatch(const SensorSpanDouble* groups, size_t group_count);

  Status Sync();
  Status Close();

  const std::string& path() const { return path_; }

  /// Bytes in the segment counting the header and every appended frame
  /// (initialized to the existing size on Open of a non-empty segment).
  /// The ship-log rotation policy reads this instead of stat()ing.
  size_t bytes() const { return bytes_; }

 private:
  std::string path_;
  bool fsync_on_sync_;
  std::FILE* out_ = nullptr;
  size_t bytes_ = 0;
  /// Encode buffer of the last appended frame, reused so appends do not
  /// allocate; holds the capacity of the largest batch seen.
  ByteBuffer frame_;
};

/// Length of the "BWAL" + version header that starts every v2 segment —
/// the smallest valid cursor offset into a segment (see
/// engine/wal_tailer.h).
inline constexpr size_t kWalHeaderBytes = 5;

/// Parses one v2 record payload (one frame's bytes, CRC already verified)
/// into flat per-point records appended to `records` — the same expansion
/// ReadWal applies, factored out so the replication tailer can decode
/// individual frames without slurping the whole segment. Corruption on a
/// malformed payload (a verified CRC means damage, not a torn tail).
Status ParseWalPayloadV2(const uint8_t* payload, size_t size,
                         std::vector<WalRecord>* records);

/// Replays a WAL segment, v2 or legacy (see the format notes above). Batch
/// records expand into per-point records in write order, so callers replay
/// one flat stream whatever mix of record types the segment holds.
/// `tail_truncated` reports whether replay stopped early at a damaged
/// frame (expected after a crash, not an error).
Status ReadWal(const std::string& path, std::vector<WalRecord>* records,
               bool* tail_truncated);

}  // namespace backsort

#endif  // BACKSORT_ENGINE_WAL_H_
