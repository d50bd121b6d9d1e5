#include "engine/wal.h"

#include <unistd.h>

#include <cstring>
#include <fstream>

#include "common/crc32.h"
#include "encoding/bytes.h"

namespace backsort {

namespace {

// Segment header of versioned WALs: magic + format version (see wal.h for
// why this cannot collide with a legacy frame).
constexpr char kWalMagic[4] = {'B', 'W', 'A', 'L'};
constexpr uint8_t kWalVersion = 2;
constexpr size_t kWalHeaderLen = sizeof(kWalMagic) + 1;

// Leading byte of every v2 record payload. Point records are no longer
// written, only replayed from older segments.
enum WalRecordType : uint8_t {
  kWalPoint = 1,
  kWalBatch = 2,
};

// Frame header: fixed32 payload size + fixed32 payload CRC.
constexpr size_t kFrameHeaderLen = 8;

bool ParsePointBody(ByteReader* body, WalRecord* record) {
  uint64_t t_bits = 0, v_bits = 0;
  if (!body->GetLengthPrefixedString(&record->sensor).ok() ||
      !body->GetFixed64(&t_bits).ok() || !body->GetFixed64(&v_bits).ok()) {
    return false;
  }
  record->t = static_cast<Timestamp>(t_bits);
  std::memcpy(&record->v, &v_bits, sizeof(record->v));
  return true;
}

}  // namespace

static_assert(kWalHeaderBytes == kWalHeaderLen,
              "public header-length constant out of sync");

Status ParseWalPayloadV2(const uint8_t* payload, size_t size,
                         std::vector<WalRecord>* records) {
  ByteReader body(payload, size);
  uint8_t type = 0;
  if (!body.GetU8(&type).ok()) {
    return Status::Corruption("WAL payload malformed");
  }
  if (type == kWalPoint) {
    WalRecord record;
    if (!ParsePointBody(&body, &record)) {
      return Status::Corruption("WAL payload malformed");
    }
    records->push_back(std::move(record));
    return Status::OK();
  }
  if (type != kWalBatch) {
    return Status::Corruption("WAL record type unknown");
  }
  uint64_t group_count = 0;
  if (!body.GetVarint64(&group_count).ok()) {
    return Status::Corruption("WAL batch malformed");
  }
  std::string sensor;
  std::vector<TvPairDouble> points;
  for (uint64_t g = 0; g < group_count; ++g) {
    uint64_t count = 0;
    if (!body.GetLengthPrefixedString(&sensor).ok() ||
        !body.GetVarint64(&count).ok() ||
        !GetPoints(&body, count, &points).ok()) {
      return Status::Corruption("WAL batch malformed");
    }
    for (const TvPairDouble& p : points) {
      records->push_back(WalRecord{sensor, p.t, p.v});
    }
  }
  return Status::OK();
}

Status WalWriter::Open() {
  if (out_ != nullptr) return Status::InvalidArgument("WAL already open");
  out_ = std::fopen(path_.c_str(), "ab");
  if (out_ == nullptr) return Status::IOError("cannot open WAL: " + path_);
  // A brand-new segment gets the version header; a non-empty one already
  // has its format fixed (segments are never reopened across versions —
  // recovery rewrites leftover segments into fresh ones).
  if (std::fseek(out_, 0, SEEK_END) != 0) {
    (void)Close();
    return Status::IOError("cannot seek WAL: " + path_);
  }
  const long size = std::ftell(out_);
  if (size < 0) {
    (void)Close();
    return Status::IOError("cannot size WAL: " + path_);
  }
  bytes_ = static_cast<size_t>(size);
  if (size == 0) {
    uint8_t header[kWalHeaderLen];
    std::memcpy(header, kWalMagic, sizeof(kWalMagic));
    header[sizeof(kWalMagic)] = kWalVersion;
    if (std::fwrite(header, 1, sizeof(header), out_) != sizeof(header)) {
      (void)Close();
      return Status::IOError("WAL header write failed: " + path_);
    }
    bytes_ = kWalHeaderLen;
  }
  return Status::OK();
}

Status WalWriter::AppendBatch(const SensorSpanDouble* groups,
                              size_t group_count) {
  if (out_ == nullptr) return Status::InvalidArgument("WAL not open");
  size_t non_empty = 0;
  for (size_t g = 0; g < group_count; ++g) {
    if (groups[g].count > 0) ++non_empty;
  }
  if (non_empty == 0) return Status::OK();
  // The whole frame is encoded in place into the reused buffer, header
  // words first as placeholders patched once the payload is known, and
  // each group's points as one PutPoints copy: a steady-state append
  // allocates nothing and issues one fwrite.
  frame_.Clear();
  frame_.PutFixed32(0);
  frame_.PutFixed32(0);
  frame_.PutU8(kWalBatch);
  frame_.PutVarint64(non_empty);
  for (size_t g = 0; g < group_count; ++g) {
    const SensorSpanDouble& group = groups[g];
    if (group.count == 0) continue;
    frame_.PutLengthPrefixedString(*group.sensor);
    frame_.PutVarint64(group.count);
    PutPoints(group.points, group.count, &frame_);
  }
  const size_t payload_size = frame_.size() - kFrameHeaderLen;
  frame_.PatchFixed32(0, static_cast<uint32_t>(payload_size));
  frame_.PatchFixed32(
      4, Crc32(frame_.data().data() + kFrameHeaderLen, payload_size));
  if (std::fwrite(frame_.data().data(), 1, frame_.size(), out_) !=
      frame_.size()) {
    return Status::IOError("WAL append failed: " + path_);
  }
  bytes_ += frame_.size();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (out_ == nullptr) return Status::InvalidArgument("WAL not open");
  if (std::fflush(out_) != 0) {
    return Status::IOError("WAL sync failed: " + path_);
  }
  if (fsync_on_sync_ && ::fsync(::fileno(out_)) != 0) {
    return Status::IOError("WAL fsync failed: " + path_);
  }
  return Status::OK();
}

Status WalWriter::Close() {
  if (out_ == nullptr) return Status::OK();
  const bool flushed = std::fflush(out_) == 0;
  const bool synced = !fsync_on_sync_ || ::fsync(::fileno(out_)) == 0;
  const bool closed = std::fclose(out_) == 0;
  out_ = nullptr;
  if (!flushed || !synced || !closed) {
    return Status::IOError("WAL close failed: " + path_);
  }
  return Status::OK();
}

Status ReadWal(const std::string& path, std::vector<WalRecord>* records,
               bool* tail_truncated) {
  records->clear();
  if (tail_truncated != nullptr) *tail_truncated = false;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open WAL: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> data(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) return Status::IOError("WAL read failed: " + path);

  // Format sniff: the v2 header, or a legacy header-less segment whose
  // frames start at byte 0. A torn header (crash before the 5 bytes made
  // it out) falls into the legacy branch and stops at the first frame
  // check, losing nothing that was ever synced.
  const bool v2 =
      data.size() >= kWalHeaderLen &&
      std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) == 0 &&
      data[sizeof(kWalMagic)] == kWalVersion;
  const size_t header = v2 ? kWalHeaderLen : 0;

  ByteReader reader(data.data() + header, data.size() - header);
  while (!reader.AtEnd()) {
    uint32_t payload_size = 0;
    uint32_t expected_crc = 0;
    if (!reader.GetFixed32(&payload_size).ok() ||
        !reader.GetFixed32(&expected_crc).ok() ||
        payload_size > reader.remaining()) {
      if (tail_truncated != nullptr) *tail_truncated = true;
      break;
    }
    const uint8_t* payload = data.data() + header + reader.position();
    if (Crc32(payload, payload_size) != expected_crc) {
      if (tail_truncated != nullptr) *tail_truncated = true;
      break;
    }
    // CRC matched, so from here any parse failure is real corruption, not
    // a torn tail.
    ByteReader body(payload, payload_size);
    if (!v2) {
      WalRecord record;
      if (!ParsePointBody(&body, &record)) {
        return Status::Corruption("WAL payload malformed: " + path);
      }
      records->push_back(std::move(record));
    } else {
      Status parsed = ParseWalPayloadV2(payload, payload_size, records);
      if (!parsed.ok()) {
        return Status::Corruption(parsed.message() + ": " + path);
      }
    }
    RETURN_NOT_OK(reader.Skip(payload_size));
  }
  return Status::OK();
}

}  // namespace backsort
