#include "core/rl_policy.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "core/decision_cache.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {

pricing::StorageTier RlPolicy::decide(const PlanContext& context,
                                      trace::FileId file, std::size_t day,
                                      pricing::StorageTier current) {
  const trace::FileRecord& f = context.trace.file(file);
  const std::size_t h = agent_.featurizer().history_len();
  if (day < h) return current;  // not enough history yet: stay put
  agent_.featurizer().encode_into(f, day, current, scratch_);
  const rl::Action action = agent_.act(scratch_, greedy_);
  return pricing::tier_from_index(action);
}

// The one batch decide path (DESIGN.md §15.2): every day forwards each
// distinct decision state once. Five phases:
//   1. build every file's exact DecisionKey and hash it — in fixed-size
//      chunks over the pool; with a cross-run DecisionCache the chunk is
//      one batched probe (exact key + epoch), which returns the hashes;
//   2. serial index-order dedup of the rows the cache did not serve to
//      unique decision states — serial so unique-slot numbering (and thus
//      the forward batch) is a pure function of the inputs, never of
//      thread timing;
//   3. parallel featurization of ONLY the unique states, each row written
//      directly into its slot of the flat batch buffer (structure-of-
//      arrays: no per-file gather copies, duplicates never encoded);
//   4. one act_features_batch over the unique rows;
//   5. scatter to every duplicate (and cache hit); with a cache, insert
//      the fresh decisions.
// Identical feature rows produce identical actions (forward_batch is
// row-independent; sampled mode draws every row from the same forked
// stream), so collapsing duplicates and serving cached actions is
// byte-identical to forwarding every file through act_batch.
void RlPolicy::decide_day(const PlanContext& context, std::size_t day,
                          std::span<const pricing::StorageTier> current,
                          std::span<pricing::StorageTier> out_plan) {
  if (current.size() != context.trace.file_count() ||
      out_plan.size() != context.trace.file_count())
    throw std::invalid_argument("decide_day: span width != file count");
  const rl::Featurizer& featurizer = agent_.featurizer();
  const std::size_t h = featurizer.history_len();
  if (day < h) {
    std::copy(current.begin(), current.end(), out_plan.begin());
    return;
  }
  MC_OBS_SCOPE("core.rl_policy.decide_day");
  DecisionCache* const cache = context.decision_cache;
  const double day_phase = featurizer.config().include_day_of_week
                               ? static_cast<double>(day % 7)
                               : -1.0;
  // Without a cache the hash only places keys in the dedup table, so any
  // fixed seed serves; with one it must be the cache's epoch.
  const std::uint64_t epoch =
      cache != nullptr ? agent_.decision_fingerprint(greedy_) : 0;
  const std::size_t n = context.trace.file_count();
  util::ThreadPool& pool = plan_pool(context);

  // Phase 1: keys + hashes (+ probe). Chunks are fixed-size so the work
  // split never depends on the pool size; per-index writes keep the result
  // deterministic.
  std::vector<DecisionKey> keys(n);
  std::vector<std::uint64_t> hashes(n);
  std::vector<std::uint8_t> cached(n, DecisionCache::kMiss);
  static_assert(pricing::kTierCount < DecisionCache::kMiss);
  constexpr std::size_t kChunk = 1024;
  const std::size_t chunk_count = (n + kChunk - 1) / kChunk;
  const auto key_chunk = [&](std::size_t c) {
    const std::size_t lo = c * kChunk;
    const std::size_t hi = std::min(n, lo + kChunk);
    for (std::size_t i = lo; i < hi; ++i) {
      const trace::FileRecord& f = context.trace.file(i);
      keys[i] = DecisionKey{
          std::span<const double>(f.reads).subspan(day - h, h),
          f.writes[day - 1], f.size_gb,
          static_cast<double>(pricing::tier_index(current[i])), day_phase};
      if (cache == nullptr) hashes[i] = keys[i].hash(epoch);
    }
    if (cache != nullptr)
      cache->probe_batch(epoch, std::span(keys).subspan(lo, hi - lo),
                         std::span(cached).subspan(lo, hi - lo),
                         std::span(hashes).subspan(lo, hi - lo));
  };
  if (pool.size() > 1 && chunk_count > 1) {
    pool.parallel_for(0, chunk_count, key_chunk);
  } else {
    for (std::size_t c = 0; c < chunk_count; ++c) key_chunk(c);
  }

  // Phase 2: dedup the unserved rows in index order. `slot_of[i]` is the
  // unique forward row deciding file i; `unique_files[s]` is slot s's
  // representative file. `table` is an open-addressing set of slots keyed
  // by the phase-1 hashes (linear probing); states whose hashes collide
  // but whose bytes differ take separate entries.
  std::size_t miss_count = 0;
  for (const std::uint8_t action : cached)
    miss_count += action == DecisionCache::kMiss ? 1 : 0;
  constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
  const std::size_t table_mask = std::bit_ceil(2 * miss_count + 1) - 1;
  std::vector<std::size_t> table(table_mask + 1, kEmpty);
  std::vector<std::size_t> slot_of(n, 0);
  std::vector<std::size_t> unique_files;
  for (std::size_t i = 0; i < n; ++i) {
    if (cached[i] != DecisionCache::kMiss) continue;
    std::size_t pos = hashes[i] & table_mask;
    while (table[pos] != kEmpty) {
      const std::size_t rep = unique_files[table[pos]];
      if (hashes[rep] == hashes[i] && keys[i].equals(keys[rep])) break;
      pos = (pos + 1) & table_mask;
    }
    if (table[pos] == kEmpty) {
      table[pos] = unique_files.size();
      unique_files.push_back(i);
    }
    slot_of[i] = table[pos];
  }

  // Phase 3: featurize only the unique states, straight into the batch.
  const std::size_t width = featurizer.feature_count();
  const std::size_t unique_count = unique_files.size();
  std::vector<double> rows(unique_count * width);
  const std::span<double> rows_span(rows);
  const auto encode_chunk = [&](std::size_t c) {
    const std::size_t lo = c * kChunk;
    const std::size_t hi = std::min(unique_count, lo + kChunk);
    for (std::size_t s = lo; s < hi; ++s) {
      const std::size_t i = unique_files[s];
      featurizer.encode_into(context.trace.file(i), day, current[i],
                             rows_span.subspan(s * width, width));
    }
  };
  const std::size_t encode_chunks = (unique_count + kChunk - 1) / kChunk;
  if (pool.size() > 1 && encode_chunks > 1) {
    pool.parallel_for(0, encode_chunks, encode_chunk);
  } else {
    for (std::size_t c = 0; c < encode_chunks; ++c) encode_chunk(c);
  }

  // Phase 4: forward the unique rows.
  const std::vector<rl::Action> actions =
      agent_.act_features_batch(rows, unique_count, greedy_, &pool);

  // Phase 5: scatter (+ insert).
  for (std::size_t i = 0; i < n; ++i) {
    out_plan[i] = pricing::tier_from_index(
        cached[i] != DecisionCache::kMiss
            ? cached[i]
            : static_cast<std::uint8_t>(actions[slot_of[i]]));
  }
  MC_OBS_COUNT("core.rl.dedup.rows", miss_count);
  MC_OBS_COUNT("core.rl.dedup.unique_rows", unique_count);
  if (cache == nullptr) return;
  for (std::size_t s = 0; s < unique_count; ++s) {
    const std::size_t i = unique_files[s];
    cache->insert(epoch, keys[i], hashes[i],
                  static_cast<std::uint8_t>(actions[s]));
  }
  cache->note_dedup(miss_count, unique_count);
}

namespace {

/// RlPolicy plus the agent it decides with, bundled for callers (the CLI)
/// that have no externally-owned agent.
class OwningRlPolicy final : public TieringPolicy {
 public:
  explicit OwningRlPolicy(const RlPolicyOptions& options)
      : agent_(options.agent, options.seed), inner_(agent_, options.greedy) {
    if (!options.checkpoint.empty()) agent_.load(options.checkpoint);
  }

  std::string name() const override { return inner_.name(); }
  Knowledge knowledge() const noexcept override { return inner_.knowledge(); }
  void prepare(const PlanContext& context) override { inner_.prepare(context); }
  pricing::StorageTier decide(const PlanContext& context, trace::FileId file,
                              std::size_t day,
                              pricing::StorageTier current) override {
    return inner_.decide(context, file, day, current);
  }
  void decide_day(const PlanContext& context, std::size_t day,
                  std::span<const pricing::StorageTier> current,
                  std::span<pricing::StorageTier> out_plan) override {
    inner_.decide_day(context, day, current, out_plan);
  }

 private:
  rl::A3CAgent agent_;
  RlPolicy inner_;
};

}  // namespace

std::unique_ptr<TieringPolicy> make_rl_policy(const RlPolicyOptions& options) {
  return std::make_unique<OwningRlPolicy>(options);
}

}  // namespace minicost::core
