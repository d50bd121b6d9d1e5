#ifndef BACKSORT_MEMTABLE_MEMTABLE_H_
#define BACKSORT_MEMTABLE_MEMTABLE_H_

#include <atomic>
#include <new>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "memtable/sensor_interner.h"
#include "tvlist/tv_list.h"

namespace backsort {

/// One memtable of the write path (Section V-A): a flat SensorId-indexed
/// table of chunks, each holding one sensor's TVList. A memtable is either
/// *working* (accepting writes) or *flushing* (sealed, queued for
/// sort+encode+disk). Value type is double throughout the system layer;
/// the algorithm-level experiments use typed TVLists directly.
///
/// High-cardinality layout: chunk objects and every TVList array are
/// placement-allocated in a per-memtable bump arena, so a 1M-sensor table
/// costs a few thousand 256 KiB blocks instead of millions of small heap
/// allocations, and retiring the table returns the memory to the OS
/// wholesale (see common/arena.h). Sensor identity is the shard's dense
/// SensorId; the `sensor` name view stored per chunk points into the
/// shard's interner, which outlives every memtable of the shard, so the
/// flush path reads names without owning or copying strings.
class MemTable {
 public:
  enum class State { kWorking, kFlushing };

  /// One sensor's chunk: its TVList (arena-backed) plus the identity the
  /// flush path needs — the interner-owned name view and the dense id.
  struct Chunk {
    Chunk(Arena* arena, std::string_view name, SensorId sensor_id)
        : list(DoubleTVList::kDefaultArraySize, arena),
          sensor(name),
          id(sensor_id) {}

    DoubleTVList list;
    std::string_view sensor;  ///< stable view into the shard's interner
    SensorId id;
  };

  MemTable() = default;
  // Neither copyable nor movable: the engine shares sealed tables between
  // the flush worker and queries. A sealed table is never written again,
  // so both read it without a lock.
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  ~MemTable() {
    // Chunks live in the arena: run their destructors (frees the TVList
    // chain vectors, which are heap), then the arena member releases every
    // block wholesale.
    for (Chunk* c : chunks_) c->~Chunk();
  }

  /// Appends one point in arrival order. Only legal while working, under
  /// the owning shard's lock. `sensor` must stay valid for the table's
  /// lifetime (the interner guarantees this on the engine path).
  void Write(SensorId id, std::string_view sensor, Timestamp t, double v) {
    Chunk* c = GetOrCreate(id, sensor);
    const size_t before = c->list.ChainBytes();
    c->list.Put(t, v);
    chain_bytes_ += c->list.ChainBytes() - before;
    total_points_.fetch_add(1, std::memory_order_relaxed);
    StoreApprox();
  }

  /// Appends `n` points of one sensor in arrival order — one index lookup
  /// and one footprint/count update for the whole slice, with the bulk
  /// TVList::AppendN underneath. State is bit-identical to `n` Write
  /// calls. Same contract as Write: working table only, under the owning
  /// shard's lock.
  void WriteN(SensorId id, std::string_view sensor, const TvPairDouble* points,
              size_t n) {
    if (n == 0) return;
    Chunk* c = GetOrCreate(id, sensor);
    const size_t before = c->list.ChainBytes();
    c->list.AppendN(points, n);
    chain_bytes_ += c->list.ChainBytes() - before;
    total_points_.fetch_add(n, std::memory_order_relaxed);
    StoreApprox();
  }

  /// Total points across all sensors — the flush trigger input. The paper
  /// notes ~100k points is the appropriate in-memory size in IoTDB (the
  /// engine splits that budget across shards). Atomic, so the engine
  /// facade can read it for cross-shard flush-trigger and metrics
  /// decisions without taking the shard lock.
  size_t total_points() const {
    return total_points_.load(std::memory_order_relaxed);
  }

  State state() const { return state_; }
  /// Seals the table: no further writes; flush pipeline takes over.
  void MarkFlushing() { state_ = State::kFlushing; }

  /// Chunks in first-write order. The pointees are arena-owned; they live
  /// exactly as long as the table.
  const std::vector<Chunk*>& chunks() const { return chunks_; }

  const DoubleTVList* GetChunk(SensorId id) const {
    return id < index_.size() && index_[id] != nullptr ? &index_[id]->list
                                                       : nullptr;
  }

  /// Exact heap footprint: arena blocks (chunk objects + TVList arrays +
  /// their block slack), the two flat chunk tables, and the per-chunk
  /// chain-pointer vectors. Walks the chunks, so the caller must hold the
  /// owning shard's lock (or have exclusive access); equals
  /// ApproxMemoryBytes by construction — memtable_accounting_test pins it.
  size_t MemoryBytes() const {
    size_t chains = 0;
    for (const Chunk* c : chunks_) chains += c->list.ChainBytes();
    return arena_.MemoryBytes() + TableBytes() + chains;
  }

  /// Lock-free footprint, maintained exactly on every Write/WriteN from
  /// O(1) inputs (arena total, table capacities, incremental chain bytes),
  /// for the engine facade's metrics snapshot and flush accounting.
  size_t ApproxMemoryBytes() const {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

 private:
  Chunk* GetOrCreate(SensorId id, std::string_view sensor) {
    if (id >= index_.size()) index_.resize(id + 1, nullptr);
    Chunk*& slot = index_[id];
    if (slot == nullptr) {
      void* mem = arena_.Allocate(sizeof(Chunk), alignof(Chunk));
      slot = new (mem) Chunk(&arena_, sensor, id);
      chunks_.push_back(slot);
    }
    return slot;
  }

  size_t TableBytes() const {
    return (index_.capacity() + chunks_.capacity()) * sizeof(Chunk*);
  }

  void StoreApprox() {
    approx_bytes_.store(arena_.MemoryBytes() + TableBytes() + chain_bytes_,
                        std::memory_order_relaxed);
  }

  Arena arena_;
  /// Dense SensorId -> chunk table (nullptr where this table has no points
  /// for the id) and the same chunks in first-write order for iteration.
  std::vector<Chunk*> index_;
  std::vector<Chunk*> chunks_;
  /// Sum of ChainBytes over all chunks, maintained incrementally.
  size_t chain_bytes_ = 0;
  std::atomic<size_t> total_points_{0};
  std::atomic<size_t> approx_bytes_{0};
  State state_ = State::kWorking;
};

}  // namespace backsort

#endif  // BACKSORT_MEMTABLE_MEMTABLE_H_
