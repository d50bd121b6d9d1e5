#include "common/chunk_cache.h"

#include <algorithm>
#include <functional>
#include <iterator>

namespace backsort {

namespace {

/// Directory keys are 'd' + file + '\0' + sensor; footer keys are
/// 'f' + file. The leading tag keeps the two namespaces disjoint even for
/// odd sensor ids.
std::string DirectoryKey(const std::string& file, const std::string& sensor) {
  std::string key;
  key.reserve(1 + file.size() + 1 + sensor.size());
  key += 'd';
  key += file;
  key += '\0';
  key += sensor;
  return key;
}

std::string FooterKey(const std::string& file) { return 'f' + file; }

size_t FooterBytes(const FooterIndex& footer) {
  return sizeof(FooterIndex) + footer.MemoryBytes();
}

}  // namespace

ChunkCache::ChunkCache(size_t capacity_bytes)
    : capacity_(capacity_bytes),
      shard_capacity_(std::max<size_t>(capacity_bytes / kShardCount, 1)) {
  if (capacity_ == 0) return;
  shards_.reserve(kShardCount);
  for (size_t i = 0; i < kShardCount; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ChunkCache::Shard& ChunkCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % kShardCount];
}

std::shared_ptr<const void> ChunkCache::Lookup(
    const std::string& key, std::atomic<uint64_t>* hits,
    std::atomic<uint64_t>* misses) {
  if (!enabled()) return nullptr;
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses->fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits->fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

void ChunkCache::EraseLocked(Shard& shard, EntryIt it) {
  // Swap-remove from the file's slot list, re-pointing the moved entry.
  auto file = shard.files.find(it->file);
  std::vector<EntryIt>& slots = file->second;
  slots[it->file_slot] = slots.back();
  slots[it->file_slot]->file_slot = it->file_slot;
  slots.pop_back();
  if (slots.empty()) shard.files.erase(file);
  shard.bytes -= it->bytes;
  shard.map.erase(it->key);
  shard.lru.erase(it);
}

void ChunkCache::Insert(const std::string& file, std::string key,
                        std::shared_ptr<const void> value, size_t bytes) {
  if (!enabled() || value == nullptr) return;
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) EraseLocked(shard, it->second);
  std::vector<EntryIt>& slots = shard.files[file];
  shard.lru.push_front(
      Entry{std::move(key), file, std::move(value), bytes, slots.size()});
  slots.push_back(shard.lru.begin());
  shard.map[shard.lru.front().key] = shard.lru.begin();
  shard.bytes += bytes;
  while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
    EraseLocked(shard, std::prev(shard.lru.end()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<const PageDirectory> ChunkCache::GetDirectory(
    const std::string& file, const std::string& sensor) {
  return std::static_pointer_cast<const PageDirectory>(
      Lookup(DirectoryKey(file, sensor), &hits_, &misses_));
}

void ChunkCache::PutDirectory(const std::string& file,
                              const std::string& sensor,
                              std::shared_ptr<const PageDirectory> directory) {
  const size_t bytes = directory ? directory->MemoryBytes() : 0;
  Insert(file, DirectoryKey(file, sensor), std::move(directory), bytes);
}

std::shared_ptr<const FooterIndex> ChunkCache::GetFooter(
    const std::string& file) {
  return std::static_pointer_cast<const FooterIndex>(
      Lookup(FooterKey(file), &footer_hits_, &footer_misses_));
}

void ChunkCache::PutFooter(const std::string& file,
                           std::shared_ptr<const FooterIndex> footer) {
  const size_t bytes = footer ? FooterBytes(*footer) : 0;
  Insert(file, FooterKey(file), std::move(footer), bytes);
}

void ChunkCache::InvalidateFile(const std::string& file) {
  for (const auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    auto entries = shard->files.find(file);
    if (entries == shard->files.end()) continue;
    // EraseLocked drops the slot list with its last entry, so erase from
    // the back while the list still exists.
    for (size_t n = entries->second.size(); n > 0; --n) {
      EraseLocked(*shard, entries->second.back());
    }
  }
}

ChunkCacheStats ChunkCache::GetStats() const {
  ChunkCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.footer_hits = footer_hits_.load(std::memory_order_relaxed);
  stats.footer_misses = footer_misses_.load(std::memory_order_relaxed);
  stats.capacity_bytes = capacity_;
  for (const auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    stats.bytes += shard->bytes;
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace backsort
