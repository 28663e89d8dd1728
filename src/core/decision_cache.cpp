#include "core/decision_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace minicost::core {
namespace {

constexpr std::size_t kDefaultShards = 16;
// Keys ahead whose candidate sets probe_batch prefetches.
constexpr std::size_t kPrefetchAhead = 8;

std::size_t round_up_pow2(std::size_t value) {
  if (value <= 1) return 1;
  return std::size_t{1} << std::bit_width(value - 1);
}

// splitmix64 finalizer — full-avalanche mix for the folded hash state.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Multiply-rotate fold of one key word. The product does not depend on the
// running state, so the serial chain per word is one xor and one rotate;
// mix64 avalanches the result once per key.
constexpr std::uint64_t fold(std::uint64_t state, double value) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  return std::rotl(state ^ ((bits ^ (bits >> 32)) * 0xff51afd7ed558ccdULL),
                   27);
}

bool doubles_equal_bytes(std::span<const double> a,
                         std::span<const double> b) noexcept {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Lemire's multiply-shift reduction of a 32-bit value onto [0, n).
constexpr std::size_t reduce(std::uint64_t value32, std::size_t n) noexcept {
  return static_cast<std::size_t>((value32 * n) >> 32);
}

/// Where a key may live inside its shard. The shard index takes the low
/// hash bits; the tag and the two candidate sets come from the bits above.
struct Candidates {
  std::size_t first;
  std::size_t second;
  std::uint16_t tag;
};

Candidates candidates(std::uint64_t hash, std::size_t set_count) noexcept {
  const auto tag = static_cast<std::uint16_t>(hash >> 16);
  return {reduce(hash >> 32, set_count),
          reduce((hash * 0x9e3779b97f4a7c15ULL) >> 32, set_count),
          tag == 0 ? std::uint16_t{1} : tag};
}

/// Bit w set where way w of the set holds `tag`.
template <std::size_t Ways>
std::uint32_t tag_matches(const std::array<std::uint16_t, Ways>& tags,
                          std::uint16_t tag) noexcept {
  std::uint32_t mask = 0;
  for (std::size_t w = 0; w < Ways; ++w)
    mask |= static_cast<std::uint32_t>(tags[w] == tag) << w;
  return mask;
}

}  // namespace

void DecisionKey::pack_into(std::span<double> out) const noexcept {
  const std::size_t h = reads.size();
  if (h != 0) std::memcpy(out.data(), reads.data(), h * sizeof(double));
  out[h] = write_rate;
  out[h + 1] = size_gb;
  out[h + 2] = tier;
  out[h + 3] = day_phase;
}

bool DecisionKey::equals(const DecisionKey& other) const noexcept {
  const std::array<double, 4> a{write_rate, size_gb, tier, day_phase};
  const std::array<double, 4> b{other.write_rate, other.size_gb, other.tier,
                                other.day_phase};
  return doubles_equal_bytes(reads, other.reads) &&
         doubles_equal_bytes(std::span<const double>(a),
                             std::span<const double>(b));
}

bool DecisionKey::equals_packed(std::span<const double> packed) const noexcept {
  const std::size_t h = reads.size();
  if (packed.size() != h + 4) return false;
  if (!doubles_equal_bytes(reads, packed.first(h))) return false;
  const std::array<double, 4> tail{write_rate, size_gb, tier, day_phase};
  return doubles_equal_bytes(std::span<const double>(tail),
                             packed.subspan(h));
}

std::uint64_t DecisionKey::hash(std::uint64_t epoch) const noexcept {
  std::uint64_t state = epoch ^ 0x6d696e69636f7374ULL;  // "minicost"
  for (const double value : reads) state = fold(state, value);
  state = fold(state, write_rate);
  state = fold(state, size_gb);
  state = fold(state, tier);
  state = fold(state, day_phase);
  return mix64(state);
}

void DecisionCache::Shard::allocate(std::size_t capacity) {
  ways = std::min(kWays, capacity);
  set_count = std::max<std::size_t>(1, capacity / kWays);
  tags = std::make_unique<TagSet[]>(set_count);
  slots = std::make_unique_for_overwrite<Slot[]>(set_count * kWays);
}

void DecisionCache::Shard::prefetch(std::uint64_t hash) const {
  const Candidates c = candidates(hash, set_count);
  __builtin_prefetch(&tags[c.first]);
  __builtin_prefetch(&tags[c.second]);
}

std::size_t DecisionCache::Shard::find(std::uint64_t hash, std::uint64_t epoch,
                                       const DecisionKey& key) const {
  if (key.packed_width() != width) return kNoSlot;
  const Candidates c = candidates(hash, set_count);
  for (const std::size_t set : {c.first, c.second}) {
    for (std::uint32_t mask = tag_matches(tags[set].tag, c.tag); mask != 0;
         mask &= mask - 1) {
      const std::size_t slot =
          set * kWays + static_cast<std::size_t>(std::countr_zero(mask));
      if (slots[slot].epoch == epoch &&
          key.equals_packed({&keys[slot * width], width}))
        return slot;
    }
    if (c.second == c.first) break;
  }
  return kNoSlot;
}

DecisionCache::InsertOutcome DecisionCache::Shard::insert(
    std::uint64_t hash, std::uint64_t epoch, const DecisionKey& key,
    std::uint8_t action) {
  InsertOutcome outcome;
  if (key.packed_width() != width) {
    outcome.evicted = drop_all();
    outcome.evicted_bytes = outcome.evicted * entry_bytes(width);
    width = key.packed_width();
    // Uninitialized: pages of the arena are only backed once written.
    keys = std::make_unique_for_overwrite<double[]>(set_count * kWays * width);
  }
  const std::uint32_t tick = ++clock;
  std::size_t slot = find(hash, epoch, key);
  if (slot != kNoSlot) {
    slots[slot].tick = tick;
    slots[slot].action = action;
    return outcome;
  }
  // Fill a free way of the emptier candidate set; with both sets full,
  // evict the least recently used slot of the two.
  const Candidates c = candidates(hash, set_count);
  const std::uint32_t way_mask = (std::uint32_t{1} << ways) - 1;
  const std::uint32_t free_first = tag_matches(tags[c.first].tag, 0) & way_mask;
  const std::uint32_t free_second =
      c.second == c.first ? 0 : tag_matches(tags[c.second].tag, 0) & way_mask;
  if ((free_first | free_second) != 0) {
    const bool second = std::popcount(free_second) > std::popcount(free_first);
    slot = (second ? c.second : c.first) * kWays +
           static_cast<std::size_t>(
               std::countr_zero(second ? free_second : free_first));
    ++resident;
  } else {
    // Ages are unsigned differences, so they stay ordered across clock
    // wrap-around.
    slot = c.first * kWays;
    for (const std::size_t set : {c.first, c.second}) {
      for (std::size_t w = 0; w < ways; ++w) {
        const std::size_t candidate = set * kWays + w;
        if (tick - slots[candidate].tick > tick - slots[slot].tick)
          slot = candidate;
      }
    }
    outcome.evicted = 1;
    outcome.evicted_bytes = entry_bytes(width);
  }
  tags[slot / kWays].tag[slot % kWays] = c.tag;
  slots[slot] = Slot{epoch, tick, action};
  key.pack_into({&keys[slot * width], width});
  outcome.added = true;
  return outcome;
}

std::size_t DecisionCache::Shard::drop_all() {
  std::fill_n(tags.get(), set_count, TagSet{});
  return std::exchange(resident, 0);
}

DecisionCache::DecisionCache(const DecisionCacheConfig& config) {
  capacity_ = config.capacity == 0 ? 1 : config.capacity;
  // No more shards than entries, so the per-shard capacities below sum to
  // exactly capacity_ with every shard holding at least one.
  const std::size_t shard_count =
      std::min(round_up_pow2(config.shards == 0 ? kDefaultShards
                                                : config.shards),
               std::bit_floor(capacity_));
  shard_mask_ = shard_count - 1;
  shards_ = std::vector<Shard>(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mutex);
    shard.allocate(capacity_ / shard_count +
                   (s < capacity_ % shard_count ? 1 : 0));
  }
  if (obs::enabled()) {
    obs_hit_ = &obs::counter("core.cache.hit");
    obs_miss_ = &obs::counter("core.cache.miss");
    obs_insert_ = &obs::counter("core.cache.insert");
    obs_evict_ = &obs::counter("core.cache.evict");
    obs_bytes_ = &obs::counter("core.cache.bytes");
  }
}

std::size_t DecisionCache::probe_batch(std::uint64_t epoch,
                                       std::span<const DecisionKey> keys,
                                       std::span<std::uint8_t> actions,
                                       std::span<std::uint64_t> hashes) {
  const std::size_t n = keys.size();
  if (actions.size() != n || hashes.size() != n)
    throw std::invalid_argument("probe_batch: span sizes differ");
  if (n == 0) return 0;
  for (std::size_t i = 0; i < n; ++i) hashes[i] = keys[i].hash(epoch);

  // Counting sort by lock shard, so each shard's mutex is taken once for
  // all of the batch's keys that map to it.
  std::vector<std::uint32_t> bounds(shards_.size() + 1, 0);
  for (const std::uint64_t hash : hashes) ++bounds[(hash & shard_mask_) + 1];
  std::partial_sum(bounds.begin(), bounds.end(), bounds.begin());
  std::vector<std::uint32_t> order(n);
  {
    std::vector<std::uint32_t> next(bounds.begin(), bounds.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      order[next[hashes[i] & shard_mask_]++] = static_cast<std::uint32_t>(i);
  }

  std::size_t hits = 0;
  // Start at a batch-dependent shard so concurrent batches do not walk the
  // locks in lockstep.
  const std::size_t start = hashes[0] & shard_mask_;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const std::size_t s = (start + k) & shard_mask_;
    const std::size_t lo = bounds[s];
    const std::size_t hi = bounds[s + 1];
    if (lo == hi) continue;
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mutex);
    const std::uint32_t tick = ++shard.clock;
    for (std::size_t p = lo; p < std::min(hi, lo + kPrefetchAhead); ++p)
      shard.prefetch(hashes[order[p]]);
    for (std::size_t p = lo; p < hi; ++p) {
      if (p + kPrefetchAhead < hi)
        shard.prefetch(hashes[order[p + kPrefetchAhead]]);
      const std::uint32_t i = order[p];
      const std::size_t slot = shard.find(hashes[i], epoch, keys[i]);
      if (slot == kNoSlot) {
        actions[i] = kMiss;
        continue;
      }
      shard.slots[slot].tick = tick;
      actions[i] = shard.slots[slot].action;
      ++hits;
    }
  }
  hits_.fetch_add(hits, std::memory_order_relaxed);
  misses_.fetch_add(n - hits, std::memory_order_relaxed);
  if (obs_hit_ != nullptr) obs_hit_->add(hits);
  if (obs_miss_ != nullptr) obs_miss_->add(n - hits);
  return hits;
}

std::optional<std::uint8_t> DecisionCache::lookup(std::uint64_t epoch,
                                                  const DecisionKey& key) {
  std::uint8_t action = kMiss;
  std::uint64_t hash = 0;
  probe_batch(epoch, {&key, 1}, {&action, 1}, {&hash, 1});
  if (action == kMiss) return std::nullopt;
  return action;
}

void DecisionCache::insert(std::uint64_t epoch, const DecisionKey& key,
                           std::uint8_t action) {
  insert(epoch, key, key.hash(epoch), action);
}

void DecisionCache::insert(std::uint64_t epoch, const DecisionKey& key,
                           std::uint64_t hash, std::uint8_t action) {
  Shard& shard = shard_for(hash);
  InsertOutcome outcome;
  {
    util::MutexLock lock(shard.mutex);
    outcome = shard.insert(hash, epoch, key, action);
  }
  if (outcome.added) {
    const std::size_t bytes = entry_bytes(key.packed_width());
    insertions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (obs_insert_ != nullptr) obs_insert_->increment();
    if (obs_bytes_ != nullptr) obs_bytes_->add(bytes);
  }
  if (outcome.evicted != 0) {
    evictions_.fetch_add(outcome.evicted, std::memory_order_relaxed);
    entries_.fetch_sub(outcome.evicted, std::memory_order_relaxed);
    resident_bytes_.fetch_sub(outcome.evicted_bytes, std::memory_order_relaxed);
    if (obs_evict_ != nullptr) obs_evict_->add(outcome.evicted);
  }
}

void DecisionCache::note_dedup(std::uint64_t rows,
                               std::uint64_t unique_rows) noexcept {
  dedup_rows_.fetch_add(rows, std::memory_order_relaxed);
  dedup_unique_rows_.fetch_add(unique_rows, std::memory_order_relaxed);
  MC_OBS_COUNT("core.cache.dedup.rows", rows);
  MC_OBS_COUNT("core.cache.dedup.unique", unique_rows);
}

void DecisionCache::clear() {
  std::uint64_t dropped = 0;
  std::uint64_t dropped_bytes = 0;
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    const std::size_t count = shard.drop_all();
    dropped += count;
    dropped_bytes += count * entry_bytes(shard.width);
  }
  entries_.fetch_sub(dropped, std::memory_order_relaxed);
  resident_bytes_.fetch_sub(dropped_bytes, std::memory_order_relaxed);
}

DecisionCacheStats DecisionCache::stats() const noexcept {
  DecisionCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.dedup_rows = dedup_rows_.load(std::memory_order_relaxed);
  out.dedup_unique_rows = dedup_unique_rows_.load(std::memory_order_relaxed);
  out.entries = entries_.load(std::memory_order_relaxed);
  out.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace minicost::core
