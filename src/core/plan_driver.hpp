#pragma once
// The shard planning driver: the reusable shard scheduler behind
// `minicost plan` over .mct stores, `minicost plan --serve`, `tracepack
// eval`, and bench/micro_plan_pipeline.
//
// A PlanDriver partitions a mapped .mct store into contiguous file shards
// and plans them, for a list of policies, in one serial loop through the
// unchanged run_policy harness: materialize a shard and compute its initial
// tiers once -> for each policy: decide -> bill -> merge its report into
// that policy's full-width bill -> release the shard's frequency pages. A
// run therefore decodes each shard once for all of its policies (a
// `--policy hot,cold,greedy,optimal` sweep reads the store once, not four
// times). Peak resident memory stays O(shard) for the trace data — one
// shard's RequestTrace, plan, and in-flight report — plus O(files) per
// policy for the merged bills themselves. A single policy is a list of one.
//
// The driver is *resident*: it keeps the policy objects (and therefore a
// trained A3C agent deployed through core::RlPolicy) warm across runs, and
// it caches every (policy, shard) BillingReport and decide time from the
// last run. That cache is what makes incremental re-planning work —
// mark_dirty() a file range, call replan(), and only the shards containing
// dirty files are re-materialized and re-decided (for every policy); the
// rest are spliced from the cache with BillingReport::merge_shard.
//
// Determinism (DESIGN.md §9/§11): for any policy whose decisions are
// per-file — every baseline and the RL policy qualify; their decide_day
// computes file i's assignment from file i's series alone — every run,
// full or incremental with any dirty set, produces a bill byte-identical
// to monolithic run_policy over reader.materialize(), for every shard size,
// pool size, and policy list. Three ingredients make this hold: per-shard
// inputs are bit-equal to the corresponding slice of the monolithic inputs
// (materialize_shard copies series bytes verbatim, and static_initial_tiers
// is itself per-file), run_policy never writes to the trace or the initial
// tiers it is handed (so the policies sharing one shard see the same
// bytes), and BillingReport accumulates in exact arithmetic, so splitting
// the charge stream across shard reports and merging — or splicing cached
// reports — cannot perturb a single bit of the totals.
// tests/core/plan_driver_test.cpp and tests/store/shard_eval_test.cpp pin
// this across shard sizes, pool sizes, policy lists, and dirty sets.
// Policies with cross-file state (none in-tree today) would see a
// different PlanContext per shard; callers own that trade-off. A 0-file
// store plans to empty (0-file) bills.
//
// Timing semantics: decision_seconds is the SUM of a policy's per-shard
// decide time; wall_seconds is the policy's own decide + bill + merge
// wall-clock plus the run's shared materialize/seed/release time — what a
// one-policy run of it would have taken. Per-file decision latency is recorded per shard-day into the
// policy's run-local histogram AND the global obs timer
// `core.plan_driver.file_decide`; p50/p99 land in the run result.

#include <memory>
#include <string>
#include <vector>

#include "core/decision_cache.hpp"
#include "core/planner.hpp"
#include "store/trace_reader.hpp"

namespace minicost::core {

struct PlanDriverOptions {
  /// Files per shard; 0 = the whole trace as a single shard.
  std::size_t shard_files = 65536;
  std::size_t start_day = 0;  ///< first billed/decided day (inclusive)
  std::size_t end_day = 0;    ///< exclusive; 0 = trace end
  /// When start_day > 0, seed each shard with static_initial_tiers computed
  /// over days [0, start_day) — the paper's hot/cool customer baseline.
  /// Otherwise (or when start_day == 0) every file starts hot. The initial
  /// placement is charged either way.
  bool static_initial = true;
  /// Pool for batched planning/billing inside each shard; nullptr = the
  /// process-shared pool. Results are pool-size independent.
  util::ThreadPool* pool = nullptr;
  /// Own a DecisionCache (DESIGN.md §15) and hand it to the run's
  /// cache-aware policies via PlanOptions (one cache for all of them). The
  /// cache lives across runs, replans, and shards — cross-day and
  /// cross-shard reuse — and stays byte-identical
  /// because keys are exact windows under a parameter-hash epoch (stale
  /// entries from a trained/reloaded agent can never serve).
  bool decision_cache = false;
  /// Entry capacity of the owned cache (0 = default).
  std::size_t decision_cache_capacity = 0;
};

/// One policy's result of one run/replan.
struct PlanDriverRun {
  std::string policy_name;
  /// Full-width bill: file_count() == reader.file_count(), days() == window.
  sim::BillingReport report;
  /// Decide time summed over the shards planned in THIS run (cached shards
  /// contribute nothing).
  double decision_seconds = 0.0;
  /// This policy's decide + bill + merge wall-clock plus the run's shared
  /// materialize, seed and release time.
  double wall_seconds = 0.0;
  std::size_t shard_count = 0;      ///< shards in the partition
  std::size_t replanned_shards = 0; ///< shards actually planned this run
  std::size_t start_day = 0;
  /// Per-file decision latency percentiles over this run's planned shards
  /// (ns; estimated from the log2 histogram). 0 when nothing was planned.
  double file_decide_p50_ns = 0.0;
  double file_decide_p99_ns = 0.0;
  /// Decision-cache activity attributable to this policy in THIS run (stats
  /// deltas across its run_policy calls; all-zero when the driver owns no
  /// cache or the policy ignores it). entries/resident_bytes report the
  /// cache's state at the end of the run.
  DecisionCacheStats cache_stats;
};

class PlanDriver {
 public:
  /// Borrows reader, pricing, and policies — all must outlive the driver;
  /// the policy instances are reused across every run/replan (a trained
  /// agent stays warm). Results come back in `policies` order. Throws
  /// std::invalid_argument on a bad planning window, an empty policy list,
  /// or a null policy. A 0-file store is valid and plans to empty bills.
  PlanDriver(const store::TraceReader& reader,
             const pricing::PricingPolicy& pricing,
             std::vector<TieringPolicy*> policies,
             const PlanDriverOptions& options = {});

  /// Plans every shard for every policy (ignores and then clears the dirty
  /// set) and fills the per-shard cache. One result per policy.
  std::vector<PlanDriverRun> run();

  /// Marks the shards containing files [first, first + count) dirty.
  /// Throws std::out_of_range past the file count; count == 0 is a no-op.
  void mark_dirty(std::size_t first, std::size_t count);
  void mark_all_dirty();

  /// Re-plans only the dirty shards (for every policy) and splices the
  /// cached BillingReports of the clean ones; clears the dirty set on
  /// success. Before the first run() every shard is dirty, so
  /// replan() == run().
  std::vector<PlanDriverRun> replan();

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t dirty_shard_count() const noexcept;
  std::size_t file_count() const noexcept { return reader_.file_count(); }
  const PlanDriverOptions& options() const noexcept { return options_; }
  /// The owned decision cache; nullptr when options.decision_cache is off.
  DecisionCache* decision_cache() noexcept { return decision_cache_.get(); }

 private:
  struct ShardRange {
    std::size_t first = 0;
    std::size_t count = 0;
  };
  struct ShardCache {
    sim::BillingReport report;
    double decide_seconds = 0.0;
  };

  std::vector<PlanDriverRun> run_shards(const std::vector<bool>& replan_shard);

  const store::TraceReader& reader_;
  const pricing::PricingPolicy& pricing_;
  std::vector<TieringPolicy*> policies_;
  PlanDriverOptions options_;
  std::size_t end_day_ = 0;  ///< resolved (options_.end_day or trace end)
  std::vector<ShardRange> shards_;
  std::vector<std::vector<ShardCache>> cache_;  ///< [policy][shard]
  std::vector<bool> dirty_;  ///< per shard; starts all-true
  std::unique_ptr<DecisionCache> decision_cache_;
};

}  // namespace minicost::core
