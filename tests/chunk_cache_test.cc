// Unit tests for the sharded LRU ChunkCache (src/common/chunk_cache.h):
// page-directory hit/miss accounting, byte-bounded LRU eviction, footer
// caching, per-file invalidation across shards, the disabled (capacity 0)
// mode, and a multi-threaded smoke run. Engine-level cache behaviour
// (compaction invalidation, repeated queries served from cache) lives in
// tests/read_path_test.cc.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/chunk_cache.h"

namespace backsort {
namespace {

/// A directory of `pages` pages; page i spans times [i*10, i*10+9] and
/// carries `base + i` as its sum, so hits can be checked for identity.
std::shared_ptr<const PageDirectory> MakeDirectory(size_t pages, double base) {
  auto directory = std::make_shared<PageDirectory>();
  directory->pages.reserve(pages);
  for (size_t i = 0; i < pages; ++i) {
    PageEntry e;
    e.offset = i * 100;
    e.length = 100;
    e.points = 10;
    e.min_t = static_cast<Timestamp>(i * 10);
    e.max_t = e.min_t + 9;
    e.sum_v = base + static_cast<double>(i);
    directory->pages.push_back(e);
  }
  return directory;
}

TEST(ChunkCacheTest, MissThenHit) {
  ChunkCache cache(1 << 20);
  ASSERT_TRUE(cache.enabled());
  EXPECT_EQ(cache.GetDirectory("f1", "s1"), nullptr);
  cache.PutDirectory("f1", "s1", MakeDirectory(10, 0.0));
  const auto hit = cache.GetDirectory("f1", "s1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->pages.size(), 10u);
  EXPECT_DOUBLE_EQ(hit->pages[3].sum_v, 3.0);
  // Same file, other sensor: distinct key.
  EXPECT_EQ(cache.GetDirectory("f1", "s2"), nullptr);
  const ChunkCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.capacity_bytes, 1u << 20);
}

TEST(ChunkCacheTest, FooterRoundTrip) {
  ChunkCache cache(1 << 20);
  EXPECT_EQ(cache.GetFooter("f1"), nullptr);
  FooterMap m;
  ChunkLocator loc;
  loc.offset = 5;
  loc.length = 100;
  loc.points = 10;
  loc.min_t = 0;
  loc.max_t = 9;
  m["s1"] = loc;
  cache.PutFooter("f1", std::make_shared<const FooterIndex>(m));
  const auto hit = cache.GetFooter("f1");
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(hit->Find("s1"), nullptr);
  EXPECT_EQ(hit->Find("s1")->length, 100u);
  const ChunkCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.footer_hits, 1u);
  EXPECT_EQ(stats.footer_misses, 1u);
  // Footer lookups do not touch the directory counters.
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(ChunkCacheTest, DisabledCacheIsInert) {
  ChunkCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.PutDirectory("f1", "s1", MakeDirectory(10, 0.0));
  EXPECT_EQ(cache.GetDirectory("f1", "s1"), nullptr);
  cache.PutFooter("f1", std::make_shared<const FooterIndex>());
  EXPECT_EQ(cache.GetFooter("f1"), nullptr);
  cache.InvalidateFile("f1");
  const ChunkCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.capacity_bytes, 0u);
}

TEST(ChunkCacheTest, EvictsLeastRecentlyUsedUnderPressure) {
  // Entries shard by (file, sensor), so pick three sensors whose keys share
  // one shard: at 16 shards, any 17 sensors hold a shard collision; probe
  // with a cache whose shards each fit exactly one directory.
  const size_t dir_bytes = MakeDirectory(100, 0.0)->MemoryBytes();
  std::vector<std::string> same_shard;
  {
    ChunkCache probe(dir_bytes * 16);
    probe.PutDirectory("f1", "s0", MakeDirectory(100, 0.0));
    same_shard.push_back("s0");
    for (int i = 1; same_shard.size() < 3 && i < 10'000; ++i) {
      const std::string sensor = "s" + std::to_string(i);
      const uint64_t before = probe.GetStats().evictions;
      probe.PutDirectory("f1", sensor, MakeDirectory(100, 0.0));
      // An eviction means the new key landed in s0's shard and displaced
      // it; re-insert s0 so the next probe tests the same shard again.
      if (probe.GetStats().evictions > before &&
          probe.GetDirectory("f1", "s0") == nullptr) {
        same_shard.push_back(sensor);
        probe.PutDirectory("f1", "s0", MakeDirectory(100, 0.0));
      }
    }
  }
  ASSERT_EQ(same_shard.size(), 3u);
  const std::string& a = same_shard[0];
  const std::string& b = same_shard[1];
  const std::string& c = same_shard[2];
  // Shard capacity fits two directories.
  ChunkCache cache(dir_bytes * 2 * 16);
  cache.PutDirectory("f1", a, MakeDirectory(100, 1.0));
  cache.PutDirectory("f1", b, MakeDirectory(100, 2.0));
  // Touch a so b is the LRU entry.
  ASSERT_NE(cache.GetDirectory("f1", a), nullptr);
  cache.PutDirectory("f1", c, MakeDirectory(100, 3.0));
  EXPECT_EQ(cache.GetDirectory("f1", b), nullptr) << "LRU entry survived";
  EXPECT_NE(cache.GetDirectory("f1", a), nullptr);
  EXPECT_NE(cache.GetDirectory("f1", c), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST(ChunkCacheTest, OneFileSpreadsOverAllShards) {
  // A large file's directories are sharded by sensor, not confined to one
  // 1/16 slice. Each shard fits 16 directories, so if one file's entries
  // all landed in one shard, at most 16 of these 64 would survive.
  const size_t dir_bytes = MakeDirectory(100, 0.0)->MemoryBytes();
  ChunkCache cache(dir_bytes * 16 * 16);
  for (int i = 0; i < 64; ++i) {
    cache.PutDirectory("big", "s" + std::to_string(i), MakeDirectory(100, i));
  }
  EXPECT_EQ(cache.GetStats().entries, 64u);
  EXPECT_EQ(cache.GetStats().evictions, 0u);
}

TEST(ChunkCacheTest, OversizedEntryStillServesRepeats) {
  // An entry larger than the whole cache is admitted (newest entry is
  // never self-evicted) so a scan bigger than the cache still benefits
  // from immediate re-reads.
  ChunkCache cache(1024);
  const auto big = MakeDirectory(10'000, 0.0);
  ASSERT_GT(big->MemoryBytes(), size_t{1024});
  cache.PutDirectory("f1", "s1", big);
  EXPECT_NE(cache.GetDirectory("f1", "s1"), nullptr);
  // The next insert that lands in the same shard displaces it; entries
  // shard by key, so insert until one does.
  std::string displacer;
  for (int i = 2; cache.GetDirectory("f1", "s1") != nullptr && i < 10'000;
       ++i) {
    displacer = "s" + std::to_string(i);
    cache.PutDirectory("f1", displacer, MakeDirectory(10, 0.0));
  }
  EXPECT_EQ(cache.GetDirectory("f1", "s1"), nullptr);
  EXPECT_NE(cache.GetDirectory("f1", displacer), nullptr);
}

TEST(ChunkCacheTest, EvictedEntryStaysValidForHolders) {
  ChunkCache cache(1024);
  cache.PutDirectory("f1", "s1", MakeDirectory(100, 7.0));
  const auto held = cache.GetDirectory("f1", "s1");
  ASSERT_NE(held, nullptr);
  // Force the held entry out (every shard holds one oversized entry).
  for (int i = 2; cache.GetDirectory("f1", "s1") != nullptr && i < 10'000;
       ++i) {
    cache.PutDirectory("f1", "s" + std::to_string(i), MakeDirectory(100, 8.0));
  }
  ASSERT_EQ(cache.GetDirectory("f1", "s1"), nullptr);
  // The shared_ptr keeps the evicted directory alive and intact.
  EXPECT_EQ(held->pages.size(), 100u);
  EXPECT_DOUBLE_EQ(held->pages[0].sum_v, 7.0);
}

TEST(ChunkCacheTest, InvalidateFileDropsAllItsEntriesOnly) {
  ChunkCache cache(1 << 20);
  cache.PutDirectory("f1", "s1", MakeDirectory(10, 0.0));
  cache.PutDirectory("f1", "s2", MakeDirectory(10, 0.0));
  cache.PutFooter("f1", std::make_shared<const FooterIndex>());
  cache.PutDirectory("f2", "s1", MakeDirectory(10, 0.0));
  const uint64_t evictions_before = cache.GetStats().evictions;
  cache.InvalidateFile("f1");
  EXPECT_EQ(cache.GetDirectory("f1", "s1"), nullptr);
  EXPECT_EQ(cache.GetDirectory("f1", "s2"), nullptr);
  EXPECT_EQ(cache.GetFooter("f1"), nullptr);
  EXPECT_NE(cache.GetDirectory("f2", "s1"), nullptr);
  // Invalidations are not counted as evictions.
  EXPECT_EQ(cache.GetStats().evictions, evictions_before);
}

TEST(ChunkCacheTest, ByteAccountingReturnsToZero) {
  ChunkCache cache(1 << 20);
  cache.PutDirectory("f1", "s1", MakeDirectory(50, 0.0));
  cache.PutDirectory("f2", "s1", MakeDirectory(50, 0.0));
  cache.PutFooter("f1", std::make_shared<const FooterIndex>());
  EXPECT_GT(cache.GetStats().bytes, 0u);
  EXPECT_EQ(cache.GetStats().entries, 3u);
  cache.InvalidateFile("f1");
  cache.InvalidateFile("f2");
  EXPECT_EQ(cache.GetStats().bytes, 0u);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ChunkCacheTest, ReplacingAKeyKeepsAccountingConsistent) {
  ChunkCache cache(1 << 20);
  cache.PutDirectory("f1", "s1", MakeDirectory(10, 0.0));
  const uint64_t bytes_small = cache.GetStats().bytes;
  cache.PutDirectory("f1", "s1", MakeDirectory(1000, 0.0));
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_GT(cache.GetStats().bytes, bytes_small);
  const auto hit = cache.GetDirectory("f1", "s1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->pages.size(), 1000u);
}

TEST(ChunkCacheTest, InvalidationIndexSurvivesEvictionAndReplacement) {
  // Churn a small cache (evictions, replaced keys, footers) so each shard's
  // per-file index is swap-removed in every order, then invalidate file by
  // file: exactly that file's surviving entries go, the rest stay.
  ChunkCache cache(96 << 10);
  constexpr int kFiles = 6;
  constexpr int kSensors = 40;
  for (int round = 0; round < 3; ++round) {
    for (int s = 0; s < kSensors; ++s) {
      for (int f = 0; f < kFiles; ++f) {
        const std::string file = "f" + std::to_string(f);
        cache.PutDirectory(file, "s" + std::to_string(s),
                           MakeDirectory(8 + (s + f + round) % 5, f));
        if (s == 0) cache.PutFooter(file, std::make_shared<FooterIndex>());
      }
    }
  }
  ASSERT_GT(cache.GetStats().evictions, 0u);
  for (int victim = 0; victim < kFiles; ++victim) {
    std::vector<std::pair<std::string, std::string>> resident;
    for (int f = victim; f < kFiles; ++f) {
      for (int s = 0; s < kSensors; ++s) {
        const std::string file = "f" + std::to_string(f);
        const std::string sensor = "s" + std::to_string(s);
        if (cache.GetDirectory(file, sensor) != nullptr) {
          resident.emplace_back(file, sensor);
        }
      }
    }
    const std::string dropped = "f" + std::to_string(victim);
    cache.InvalidateFile(dropped);
    EXPECT_EQ(cache.GetFooter(dropped), nullptr);
    for (const auto& [file, sensor] : resident) {
      EXPECT_EQ(cache.GetDirectory(file, sensor) != nullptr, file != dropped)
          << file << "/" << sensor;
    }
  }
  EXPECT_EQ(cache.GetStats().bytes, 0u);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ChunkCacheTest, ConcurrentMixedTrafficSmoke) {
  // Hammer a small cache from several threads mixing puts, gets and
  // invalidations; run under TSan via tools/ci.sh. Correctness here is
  // "no crash/race and hits return intact chunks".
  ChunkCache cache(64 << 10);
  constexpr int kThreads = 8;
  constexpr int kOps = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string file = "f" + std::to_string(i % 7);
        const std::string sensor = "s" + std::to_string(t % 3);
        switch (i % 4) {
          case 0:
            cache.PutDirectory(file, sensor,
                           MakeDirectory(32, static_cast<double>(t) * 100));
            break;
          case 3:
            if (i % 97 == 0) cache.InvalidateFile(file);
            break;
          default: {
            const auto hit = cache.GetDirectory(file, sensor);
            if (hit != nullptr) {
              ASSERT_EQ(hit->pages.size(), 32u);
              ASSERT_EQ(hit->pages.back().max_t, Timestamp{319});
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const ChunkCacheStats stats = cache.GetStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.entries, uint64_t{7 * 3 + 7});
}

}  // namespace
}  // namespace backsort
