#pragma once
// Dedup-aware decision cache for the planning hot path (DESIGN.md §15).
//
// ~80% of files sit in the lowest variability bucket (paper Fig. 2): their
// daily access-count windows are small integers that repeat massively across
// files and days, so the per-file-per-day network forward — the dominant
// cost of PlanDriver once shard I/O is pipelined — recomputes the same
// output millions of times. DecisionCache memoizes the *chosen action* for
// an exact decision state, so repeated states skip featurization and the
// forward entirely.
//
// Correctness is by construction, not by tolerance:
//   * The key is the EXACT window the featurizer reads — the raw read
//     history bytes, yesterday's write rate, the file size, the current
//     tier, and the day-of-week phase — packed as doubles and compared
//     bytewise on every probe. Two states collide only when every input
//     bit matches, and the network is deterministic (DESIGN.md §7), so a
//     cached action is bit-equal to the action a fresh forward would pick.
//   * Every entry carries the epoch it was computed under: a fingerprint of
//     the deciding policy (parameter hash + decision-mode bits). Training,
//     loading a checkpoint, or switching policies changes the fingerprint,
//     so stale entries can never serve — they miss, and set-local LRU
//     eviction reclaims their slots.
//
// Layout: the table is split into power-of-two lock shards selected by key
// hash; each shard is a util::Mutex-guarded (thread-safety annotated) flat
// set-associative table whose arrays are allocated once — 16-way sets of
// 16-bit hash tags, one slot-metadata array (epoch, recency tick, action)
// and one contiguous key arena (the packed doubles, inline, allocated
// uninitialized at the first insert so capacity the workload never reaches
// costs no resident memory). A key may live in either of two candidate sets
// picked by independent hash bits; an insert fills the emptier of the two
// and, when both are full, evicts the least recently used of their slots.
// A hit is one tick store — no list splice, no allocation. The two choices
// keep a working set well under capacity fully resident; a single fixed
// set per key would lose keys to set overflow long before the table fills.
//
// Batch decide paths call probe_batch() from parallel_for workers: it hashes
// the whole batch first, takes each lock shard once for all of the batch's
// keys that map to it, prefetches candidate sets a few keys ahead, and adds
// the batch's hit/miss counts to the local relaxed-atomic stats (for per-run
// deltas) and the global obs counters `core.cache.*` once per batch, so no
// shared counter is touched per probe.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace minicost::obs {
class Counter;
}  // namespace minicost::obs

namespace minicost::core {

struct DecisionCacheConfig {
  /// Maximum resident entries across all lock shards (0 is treated as 1).
  /// Each entry holds the packed key (history_len + 4 doubles) plus 18
  /// bytes of tag and slot metadata — the default bounds the cache near
  /// 20 MiB at a 14-day history.
  std::size_t capacity = 1u << 17;
  /// Lock shards (rounded up to a power of two; 0 = default; lowered to
  /// the largest power of two <= capacity so every shard holds at least
  /// one entry). More shards cut probe contention from parallel workers.
  std::size_t shards = 16;
};

/// One decision state, viewed in place over the trace (nothing is copied
/// until an insert packs it). `reads` is the exact history window the
/// featurizer would encode; `day_phase` is day % 7 when the featurizer uses
/// the day-of-week channel, -1 otherwise; `tier` is the current tier index.
struct DecisionKey {
  std::span<const double> reads;
  double write_rate = 0.0;
  double size_gb = 0.0;
  double tier = 0.0;
  double day_phase = -1.0;

  /// Packed width in doubles: the history window plus the 4 scalars.
  std::size_t packed_width() const noexcept { return reads.size() + 4; }
  /// Serializes into `out` (exactly packed_width() doubles).
  void pack_into(std::span<double> out) const noexcept;
  /// Bytewise equality against another view (intra-batch dedup compare).
  bool equals(const DecisionKey& other) const noexcept;
  /// Bytewise equality against a packed key of the same width.
  bool equals_packed(std::span<const double> packed) const noexcept;
  /// 64-bit hash over the exact key bytes mixed with `epoch`: a
  /// multiply-rotate fold and one final mix. It only places keys — a hit
  /// still compares the epoch and every key byte.
  std::uint64_t hash(std::uint64_t epoch) const noexcept;
};

/// Point-in-time counters. Monotonic except `entries`/`resident_bytes`
/// (current residency); fields are individually coherent relaxed loads.
struct DecisionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Batch-dedup accounting, reported by the decide paths that consult this
  /// cache (see note_dedup): rows that missed the cache, and the unique
  /// rows among them that were actually forwarded.
  std::uint64_t dedup_rows = 0;
  std::uint64_t dedup_unique_rows = 0;
  std::uint64_t entries = 0;
  std::uint64_t resident_bytes = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  /// Rows per forward among the cache misses (1.0 = no intra-batch reuse).
  double dedup_ratio() const noexcept {
    return dedup_unique_rows == 0
               ? 1.0
               : static_cast<double>(dedup_rows) /
                     static_cast<double>(dedup_unique_rows);
  }
};

class DecisionCache {
 public:
  /// probe_batch()'s action for a key that missed (no tier index is 0xff).
  static constexpr std::uint8_t kMiss = 0xff;

  explicit DecisionCache(const DecisionCacheConfig& config = {});

  DecisionCache(const DecisionCache&) = delete;
  DecisionCache& operator=(const DecisionCache&) = delete;

  /// Probes every key under `epoch`. A hit requires the stored epoch AND
  /// every key byte to match; it refreshes the entry's recency. Writes each
  /// key's action (kMiss on a miss) to `actions` and its key.hash(epoch) to
  /// `hashes`, for the caller's dedup and insert(). All three spans must
  /// have the same size. Returns the number of hits. Thread-safe.
  std::size_t probe_batch(std::uint64_t epoch,
                          std::span<const DecisionKey> keys,
                          std::span<std::uint8_t> actions,
                          std::span<std::uint64_t> hashes);

  /// One-key probe_batch(). Thread-safe.
  std::optional<std::uint8_t> lookup(std::uint64_t epoch,
                                     const DecisionKey& key);

  /// Inserts (or refreshes) the action for `key` under `epoch`. When both
  /// of the key's candidate sets are full, evicts the least recently used
  /// slot among them. Thread-safe.
  void insert(std::uint64_t epoch, const DecisionKey& key,
              std::uint8_t action);
  /// insert() with `hash` == key.hash(epoch) already computed (probe_batch
  /// returns it).
  void insert(std::uint64_t epoch, const DecisionKey& key, std::uint64_t hash,
              std::uint8_t action);

  /// Records one batch's dedup outcome (`rows` cache-missed rows collapsed
  /// to `unique_rows` forwards) so dedup ratios land next to hit rates in
  /// stats() and the obs registry.
  void note_dedup(std::uint64_t rows, std::uint64_t unique_rows) noexcept;

  /// Drops every entry (stats counters are preserved). Thread-safe.
  void clear();

  DecisionCacheStats stats() const noexcept;
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  static constexpr std::size_t kWays = 16;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// One set's 16-bit hash tags (0 marks an empty way); half a cache line,
  /// so one prefetch covers a set.
  struct alignas(32) TagSet {
    std::array<std::uint16_t, kWays> tag{};
  };
  /// Everything a slot holds besides its tag and key.
  struct Slot {
    std::uint64_t epoch;
    std::uint32_t tick;  ///< shard clock at the last insert or hit
    std::uint8_t action;
  };
  /// Resident footprint of one entry, as reported in stats().
  static constexpr std::size_t entry_bytes(std::size_t width) noexcept {
    return width * sizeof(double) + sizeof(Slot) + sizeof(std::uint16_t);
  }
  /// What an insert did to residency.
  struct InsertOutcome {
    bool added = false;  ///< false when an existing entry was refreshed
    std::uint64_t evicted = 0;
    std::uint64_t evicted_bytes = 0;
  };
  /// One lock shard: `set_count` sets of `ways` slots. Keys of one width
  /// live in a shard at a time; an insert of another width (another
  /// history_len) first drops the shard's entries, and probes of another
  /// width miss.
  struct Shard {
    mutable util::Mutex mutex;
    std::size_t set_count MC_GUARDED_BY(mutex) = 0;
    std::size_t ways MC_GUARDED_BY(mutex) = 0;
    std::size_t width MC_GUARDED_BY(mutex) = 0;  ///< 0 until the first insert
    std::size_t resident MC_GUARDED_BY(mutex) = 0;
    std::uint32_t clock MC_GUARDED_BY(mutex) = 0;
    std::unique_ptr<TagSet[]> tags MC_GUARDED_BY(mutex);
    /// kWays per set, in set order (slot = set * kWays + way).
    std::unique_ptr<Slot[]> slots MC_GUARDED_BY(mutex);
    /// `width` doubles per slot, in slot order.
    std::unique_ptr<double[]> keys MC_GUARDED_BY(mutex);

    void allocate(std::size_t capacity) MC_REQUIRES(mutex);
    void prefetch(std::uint64_t hash) const MC_REQUIRES(mutex);
    /// Slot index of `key` under `epoch`, or kNoSlot.
    std::size_t find(std::uint64_t hash, std::uint64_t epoch,
                     const DecisionKey& key) const MC_REQUIRES(mutex);
    InsertOutcome insert(std::uint64_t hash, std::uint64_t epoch,
                         const DecisionKey& key, std::uint8_t action)
        MC_REQUIRES(mutex);
    /// Drops every entry; returns how many there were.
    std::size_t drop_all() MC_REQUIRES(mutex);
  };

  Shard& shard_for(std::uint64_t hash) noexcept {
    return shards_[hash & shard_mask_];
  }

  std::size_t capacity_ = 0;
  std::uint64_t shard_mask_ = 0;
  std::vector<Shard> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> dedup_rows_{0};
  std::atomic<std::uint64_t> dedup_unique_rows_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> resident_bytes_{0};

  // Registry references resolved once (obs registry nodes are process-
  // lifetime stable); nullptr when obs is disabled at construction.
  obs::Counter* obs_hit_ = nullptr;
  obs::Counter* obs_miss_ = nullptr;
  obs::Counter* obs_insert_ = nullptr;
  obs::Counter* obs_evict_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
};

}  // namespace minicost::core
