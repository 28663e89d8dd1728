#include "core/decision_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "pricing/tier.hpp"

namespace minicost::core {
namespace {

/// A key over an owned window; action derived from the window so every
/// lookup can verify it got the value this exact key was inserted with.
struct OwnedKey {
  std::vector<double> reads;
  double write_rate;
  double size_gb;
  double tier;
  double day_phase;

  DecisionKey view() const {
    return {reads, write_rate, size_gb, tier, day_phase};
  }
  std::uint8_t action() const {
    double sum = write_rate + size_gb + tier + day_phase;
    for (const double r : reads) sum += r;
    return static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(sum) % pricing::kTierCount);
  }
};

OwnedKey make_key(std::uint64_t salt, std::size_t history_len = 14) {
  OwnedKey key;
  key.reads.resize(history_len);
  for (std::size_t i = 0; i < key.reads.size(); ++i)
    key.reads[i] = static_cast<double>((salt * 31 + i * 7) % 100);
  key.write_rate = static_cast<double>(salt % 5);
  key.size_gb = 1.0 + static_cast<double>(salt % 17);
  key.tier = static_cast<double>(salt % pricing::kTierCount);
  key.day_phase = static_cast<double>(salt % 7);
  return key;
}

constexpr std::uint64_t kEpoch = 0x1234abcd;

TEST(DecisionCacheTest, MissThenHitRoundTrip) {
  DecisionCache cache;
  const OwnedKey key = make_key(1);
  EXPECT_FALSE(cache.lookup(kEpoch, key.view()).has_value());
  cache.insert(kEpoch, key.view(), 2);
  const auto hit = cache.lookup(kEpoch, key.view());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 2);
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(DecisionCacheTest, KeysCompareByExactBytes) {
  DecisionCache cache;
  OwnedKey key = make_key(2);
  key.reads[3] = 0.0;
  cache.insert(kEpoch, key.view(), 1);

  // -0.0 == 0.0 numerically but differs in sign bit: the featurizer would
  // see different input bytes, so the cache must treat it as a new state.
  OwnedKey negative_zero = key;
  negative_zero.reads[3] = -0.0;
  EXPECT_FALSE(cache.lookup(kEpoch, negative_zero.view()).has_value());

  OwnedKey nudged = key;
  nudged.size_gb += 1e-12;
  EXPECT_FALSE(cache.lookup(kEpoch, nudged.view()).has_value());

  EXPECT_TRUE(cache.lookup(kEpoch, key.view()).has_value());
}

TEST(DecisionCacheTest, EpochChangeInvalidates) {
  DecisionCache cache;
  const OwnedKey key = make_key(3);
  cache.insert(kEpoch, key.view(), 1);
  ASSERT_TRUE(cache.lookup(kEpoch, key.view()).has_value());
  // A trained/reloaded/reconfigured policy fingerprints differently; the
  // same state must miss rather than serve the stale action.
  EXPECT_FALSE(cache.lookup(kEpoch + 1, key.view()).has_value());
  // The epoch is part of the key, not a global version gate: entries for
  // different epochs coexist (policies may share one cache) and each epoch
  // serves only the action recorded under it.
  cache.insert(kEpoch + 1, key.view(), 0);
  const auto hit = cache.lookup(kEpoch + 1, key.view());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0);
  const auto old_hit = cache.lookup(kEpoch, key.view());
  ASSERT_TRUE(old_hit.has_value());
  EXPECT_EQ(*old_hit, 1);
}

TEST(DecisionCacheTest, ReinsertRefreshesInsteadOfGrowing) {
  DecisionCache cache;
  const OwnedKey key = make_key(4);
  cache.insert(kEpoch, key.view(), 1);
  cache.insert(kEpoch, key.view(), 1);
  cache.insert(kEpoch, key.view(), 2);  // last writer wins
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(*cache.lookup(kEpoch, key.view()), 2);
}

TEST(DecisionCacheTest, LruEvictsColdestAtCapacity) {
  DecisionCacheConfig config;
  config.capacity = 4;
  config.shards = 1;  // one shard so the LRU order is globally observable
  DecisionCache cache(config);
  std::vector<OwnedKey> keys;
  for (std::uint64_t salt = 0; salt < 4; ++salt) {
    keys.push_back(make_key(100 + salt));
    cache.insert(kEpoch, keys.back().view(), keys.back().action());
  }
  // Touch the oldest entry so it is no longer the eviction candidate.
  ASSERT_TRUE(cache.lookup(kEpoch, keys[0].view()).has_value());

  const OwnedKey fifth = make_key(200);
  cache.insert(kEpoch, fifth.view(), fifth.action());

  EXPECT_TRUE(cache.lookup(kEpoch, keys[0].view()).has_value());
  EXPECT_FALSE(cache.lookup(kEpoch, keys[1].view()).has_value());
  EXPECT_TRUE(cache.lookup(kEpoch, fifth.view()).has_value());
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 1u);
}

// The set-associative table's guarantee: a key is only evicted when both of
// its candidate sets are full, so a working set well under capacity stays
// fully resident (the LRU test above pins the order within a full set).
TEST(DecisionCacheTest, WorkingSetUnderCapacityStaysResident) {
  DecisionCacheConfig config;
  config.capacity = 1024;
  config.shards = 1;
  DecisionCache cache(config);
  std::vector<OwnedKey> keys;
  for (std::uint64_t salt = 0; salt < 896; ++salt) {
    keys.push_back(make_key(10'000 + salt));
    cache.insert(kEpoch, keys.back().view(), keys.back().action());
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  std::vector<DecisionKey> views;
  for (const OwnedKey& key : keys) views.push_back(key.view());
  std::vector<std::uint8_t> actions(views.size());
  std::vector<std::uint64_t> hashes(views.size());
  EXPECT_EQ(cache.probe_batch(kEpoch, views, actions, hashes), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(actions[i], keys[i].action()) << "key " << i;
}

// Resident entries never exceed the configured capacity, whatever the shard
// count — including fewer entries than requested shards.
TEST(DecisionCacheTest, EntriesNeverExceedCapacity) {
  const std::vector<std::pair<std::size_t, std::size_t>> cases{
      {1, 1}, {4, 16}, {5, 4}, {16, 16}, {17, 4}, {100, 16}, {1000, 8}};
  for (const auto& [capacity, shards] : cases) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                 " shards=" + std::to_string(shards));
    DecisionCacheConfig config;
    config.capacity = capacity;
    config.shards = shards;
    DecisionCache cache(config);
    EXPECT_EQ(cache.capacity(), capacity);
    EXPECT_LE(cache.shard_count(), capacity);
    for (std::uint64_t salt = 0; salt < 4 * capacity + 64; ++salt) {
      const OwnedKey key = make_key(salt);
      cache.insert(kEpoch, key.view(), key.action());
      ASSERT_LE(cache.stats().entries, capacity) << "after insert " << salt;
    }
    EXPECT_GT(cache.stats().entries, 0u);
    EXPECT_GT(cache.stats().evictions, 0u);
  }
}

TEST(DecisionCacheTest, ProbeBatchMatchesPerKeyLookup) {
  DecisionCache batched;
  DecisionCache single;
  std::vector<OwnedKey> keys;
  for (std::uint64_t salt = 0; salt < 300; ++salt) {
    keys.push_back(make_key(salt));
    if (salt % 3 != 0) {  // a third of the probes miss
      batched.insert(kEpoch, keys.back().view(), keys.back().action());
      single.insert(kEpoch, keys.back().view(), keys.back().action());
    }
  }
  std::vector<DecisionKey> views;
  for (const OwnedKey& key : keys) views.push_back(key.view());
  std::vector<std::uint8_t> actions(views.size());
  std::vector<std::uint64_t> hashes(views.size());
  const std::size_t hits = batched.probe_batch(kEpoch, views, actions, hashes);

  std::size_t single_hits = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const auto hit = single.lookup(kEpoch, views[i]);
    EXPECT_EQ(actions[i], hit.value_or(DecisionCache::kMiss)) << "key " << i;
    EXPECT_EQ(hashes[i], views[i].hash(kEpoch)) << "key " << i;
    single_hits += hit.has_value() ? 1 : 0;
  }
  EXPECT_EQ(hits, 200u);
  EXPECT_EQ(hits, single_hits);
  EXPECT_EQ(batched.stats().hits, single.stats().hits);
  EXPECT_EQ(batched.stats().misses, single.stats().misses);

  // The returned hash is the one insert() would compute.
  const OwnedKey fresh = make_key(9'999);
  batched.insert(kEpoch, fresh.view(), fresh.view().hash(kEpoch), 2);
  EXPECT_EQ(batched.lookup(kEpoch, fresh.view()), std::optional<std::uint8_t>(2));
  EXPECT_THROW(batched.probe_batch(kEpoch, views, std::span(actions).first(1),
                                   hashes),
               std::invalid_argument);
}

// Another history_len packs a key of another width: equal prefixes must not
// make a short key serve a long one or the other way round.
TEST(DecisionCacheTest, KeysOfAnotherWidthNeverServe) {
  DecisionCacheConfig config;
  config.shards = 1;  // both widths share one shard
  DecisionCache cache(config);
  const OwnedKey short_key = make_key(7, 7);
  OwnedKey long_key = make_key(7, 14);
  std::copy(short_key.reads.begin(), short_key.reads.end(),
            long_key.reads.begin());
  cache.insert(kEpoch, short_key.view(), 1);

  const std::vector<DecisionKey> views{long_key.view(), short_key.view()};
  std::vector<std::uint8_t> actions(2);
  std::vector<std::uint64_t> hashes(2);
  EXPECT_EQ(cache.probe_batch(kEpoch, views, actions, hashes), 1u);
  EXPECT_EQ(actions[0], DecisionCache::kMiss);
  EXPECT_EQ(actions[1], 1);

  cache.insert(kEpoch, long_key.view(), 2);
  EXPECT_EQ(cache.probe_batch(kEpoch, views, actions, hashes), 1u);
  EXPECT_EQ(actions[0], 2);
  EXPECT_EQ(actions[1], DecisionCache::kMiss);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(DecisionCacheTest, EpochChangeInvalidatesBatchProbes) {
  DecisionCache cache;
  std::vector<OwnedKey> keys;
  std::vector<DecisionKey> views;
  for (std::uint64_t salt = 0; salt < 64; ++salt) {
    keys.push_back(make_key(500 + salt));
    cache.insert(kEpoch, keys.back().view(), keys.back().action());
  }
  for (const OwnedKey& key : keys) views.push_back(key.view());
  std::vector<std::uint8_t> actions(views.size());
  std::vector<std::uint64_t> hashes(views.size());
  EXPECT_EQ(cache.probe_batch(kEpoch + 1, views, actions, hashes), 0u);
  for (const std::uint8_t action : actions)
    EXPECT_EQ(action, DecisionCache::kMiss);
  EXPECT_EQ(cache.probe_batch(kEpoch, views, actions, hashes), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(actions[i], keys[i].action());
}

TEST(DecisionCacheTest, ClearDropsEntriesKeepsCounters) {
  DecisionCache cache;
  const OwnedKey key = make_key(5);
  cache.insert(kEpoch, key.view(), 1);
  ASSERT_TRUE(cache.lookup(kEpoch, key.view()).has_value());
  cache.clear();
  const DecisionCacheStats after = cache.stats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.resident_bytes, 0u);
  EXPECT_EQ(after.insertions, 1u);  // history is preserved
  EXPECT_FALSE(cache.lookup(kEpoch, key.view()).has_value());
}

TEST(DecisionCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  DecisionCacheConfig config;
  config.shards = 3;
  DecisionCache cache(config);
  EXPECT_EQ(cache.shard_count(), 4u);
  DecisionCacheConfig one;
  one.shards = 1;
  EXPECT_EQ(DecisionCache(one).shard_count(), 1u);
}

TEST(DecisionCacheTest, DedupAccountingFeedsRatio) {
  DecisionCache cache;
  cache.note_dedup(10, 2);
  cache.note_dedup(6, 2);
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.dedup_rows, 16u);
  EXPECT_EQ(stats.dedup_unique_rows, 4u);
  EXPECT_DOUBLE_EQ(stats.dedup_ratio(), 4.0);
  EXPECT_DOUBLE_EQ(DecisionCacheStats{}.dedup_ratio(), 1.0);
}

TEST(DecisionCacheTest, ConcurrentHammerServesOnlyExactActions) {
  DecisionCacheConfig config;
  config.capacity = 64;  // small: force constant eviction under contention
  config.shards = 4;
  DecisionCache cache(config);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 5000;
  constexpr std::uint64_t kKeySpace = 97;

  std::vector<std::thread> threads;
  std::vector<std::uint64_t> wrong_actions(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const OwnedKey key = make_key((t * 31 + i * 7) % kKeySpace);
        const auto hit = cache.lookup(kEpoch, key.view());
        if (hit.has_value()) {
          // Exact-byte keys mean a hit can only ever return the action the
          // identical state was inserted with, no matter the interleaving.
          if (*hit != key.action()) ++wrong_actions[t];
        } else {
          cache.insert(kEpoch, key.view(), key.action());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(wrong_actions[t], 0u) << "thread " << t;
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  EXPECT_LE(stats.entries, 64u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(DecisionCacheTest, ConcurrentBatchHammerServesOnlyExactActions) {
  DecisionCacheConfig config;
  config.capacity = 64;
  config.shards = 4;
  DecisionCache cache(config);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 400;
  constexpr std::size_t kBatch = 24;
  constexpr std::uint64_t kKeySpace = 97;

  std::vector<std::thread> threads;
  std::vector<std::uint64_t> wrong_actions(kThreads, 0);
  std::atomic<std::uint64_t> probes{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<OwnedKey> keys(kBatch);
      std::vector<DecisionKey> views(kBatch);
      std::vector<std::uint8_t> actions(kBatch);
      std::vector<std::uint64_t> hashes(kBatch);
      for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t k = 0; k < kBatch; ++k) {
          keys[k] = make_key((t * 31 + r * 7 + k * 13) % kKeySpace);
          views[k] = keys[k].view();
        }
        cache.probe_batch(kEpoch, views, actions, hashes);
        probes.fetch_add(kBatch, std::memory_order_relaxed);
        for (std::size_t k = 0; k < kBatch; ++k) {
          if (actions[k] == DecisionCache::kMiss) {
            cache.insert(kEpoch, views[k], hashes[k], keys[k].action());
          } else if (actions[k] != keys[k].action()) {
            ++wrong_actions[t];
          }
        }
        if (t == 0 && r % 50 == 49) cache.clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(wrong_actions[t], 0u) << "thread " << t;
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, probes.load());
  EXPECT_LE(stats.entries, 64u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace minicost::core
