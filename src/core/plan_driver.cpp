#include "core/plan_driver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace minicost::core {

PlanDriver::PlanDriver(const store::TraceReader& reader,
                       const pricing::PricingPolicy& pricing,
                       std::vector<TieringPolicy*> policies,
                       const PlanDriverOptions& options)
    : reader_(reader),
      pricing_(pricing),
      policies_(std::move(policies)),
      options_(options) {
  if (policies_.empty() ||
      std::find(policies_.begin(), policies_.end(), nullptr) != policies_.end())
    throw std::invalid_argument("PlanDriver: empty policy list or null policy");
  end_day_ = options_.end_day == 0 ? reader_.days() : options_.end_day;
  if (options_.start_day >= end_day_ || end_day_ > reader_.days())
    throw std::invalid_argument("PlanDriver: bad planning window");

  const std::size_t n = reader_.file_count();
  const std::size_t shard =
      options_.shard_files == 0 ? n : options_.shard_files;
  for (std::size_t first = 0; first < n; first += shard)
    shards_.push_back({first, std::min(shard, n - first)});
  cache_.assign(policies_.size(), std::vector<ShardCache>(shards_.size()));
  dirty_.assign(shards_.size(), true);

  if (options_.decision_cache) {
    DecisionCacheConfig cache_config;
    if (options_.decision_cache_capacity != 0)
      cache_config.capacity = options_.decision_cache_capacity;
    decision_cache_ = std::make_unique<DecisionCache>(cache_config);
  }
}

std::size_t PlanDriver::dirty_shard_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(dirty_.begin(), dirty_.end(), true));
}

void PlanDriver::mark_dirty(std::size_t first, std::size_t count) {
  // Overflow-safe form of first + count > file_count (`touch SIZE_MAX 2`
  // must not wrap past the check).
  if (count > reader_.file_count() ||
      first > reader_.file_count() - count)
    throw std::out_of_range("PlanDriver::mark_dirty: bad file range");
  if (count == 0 || shards_.empty()) return;
  // Every shard but the last has the same width, so the partition stride is
  // the first shard's count (== min(shard_files, n)).
  const std::size_t shard = shards_.front().count;
  const std::size_t lo = first / shard;
  const std::size_t hi = (first + count - 1) / shard;
  for (std::size_t s = lo; s <= hi && s < dirty_.size(); ++s)
    dirty_[s] = true;
}

void PlanDriver::mark_all_dirty() { dirty_.assign(shards_.size(), true); }

std::vector<PlanDriverRun> PlanDriver::run() {
  mark_all_dirty();
  return replan();
}

std::vector<PlanDriverRun> PlanDriver::replan() {
  const std::vector<bool> replan_shard = dirty_;
  std::vector<PlanDriverRun> result = run_shards(replan_shard);
  dirty_.assign(shards_.size(), false);
  return result;
}

std::vector<PlanDriverRun> PlanDriver::run_shards(
    const std::vector<bool>& replan_shard) {
  util::Stopwatch wall;
  const std::size_t window = end_day_ - options_.start_day;
  const std::size_t policy_count = policies_.size();

  // Each policy's own decide + bill + merge time; the rest of the wall
  // (materialize, seeding, release) is shared and charged to every policy.
  std::vector<double> own_seconds(policy_count, 0.0);
  std::vector<PlanDriverRun> runs(policy_count);
  for (std::size_t p = 0; p < policy_count; ++p) {
    runs[p].policy_name = policies_[p]->name();
    runs[p].start_day = options_.start_day;
    runs[p].report = sim::BillingReport(reader_.file_count(), window);
    runs[p].shard_count = shards_.size();
  }

  MC_OBS_COUNT("core.plan_driver.calls", 1);

  // Run-local latency histograms (percentiles must cover THIS run and one
  // policy only) plus the cumulative global timer the run reports
  // serialize.
  std::vector<obs::Timer> latency(policy_count);
  obs::Timer* global_latency =
      obs::enabled() ? &obs::timer("core.plan_driver.file_decide") : nullptr;

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto [first, count] = shards_[s];
    if (!replan_shard[s]) {
      MC_OBS_SCOPE("core.plan_driver.merge");
      for (std::size_t p = 0; p < policy_count; ++p) {
        const util::Stopwatch own;
        runs[p].report.merge_shard(cache_[p][s].report, first);
        own_seconds[p] += own.seconds();
      }
      MC_OBS_COUNT("core.plan_driver.shards_spliced", 1);
      continue;
    }

    // Decoded and seeded once; every policy plans the same bytes.
    const trace::RequestTrace shard_trace = [&] {
      MC_OBS_SCOPE("core.plan_driver.materialize");
      return reader_.materialize_shard(first, count);
    }();

    PlanOptions plan_options;
    plan_options.start_day = options_.start_day;
    plan_options.end_day = end_day_;
    plan_options.pool = options_.pool;
    plan_options.decision_cache = decision_cache_.get();
    if (options_.static_initial && options_.start_day > 0)
      plan_options.initial_tiers =
          static_initial_tiers(shard_trace, pricing_, options_.start_day);

    for (std::size_t p = 0; p < policy_count; ++p) {
      PlanDriverRun& run = runs[p];
      const util::Stopwatch own;
      const DecisionCacheStats cache_before =
          decision_cache_ ? decision_cache_->stats() : DecisionCacheStats{};
      PlanResult shard_result =
          run_policy(shard_trace, pricing_, *policies_[p], plan_options);
      if (decision_cache_) {
        // Deltas of the monotone counters across this policy's call only.
        const DecisionCacheStats now = decision_cache_->stats();
        run.cache_stats.hits += now.hits - cache_before.hits;
        run.cache_stats.misses += now.misses - cache_before.misses;
        run.cache_stats.insertions += now.insertions - cache_before.insertions;
        run.cache_stats.evictions += now.evictions - cache_before.evictions;
        run.cache_stats.dedup_rows += now.dedup_rows - cache_before.dedup_rows;
        run.cache_stats.dedup_unique_rows +=
            now.dedup_unique_rows - cache_before.dedup_unique_rows;
      }

      for (const double day_seconds : shard_result.day_seconds) {
        const double per_file_ns =
            day_seconds * 1e9 / static_cast<double>(count);
        const auto ns = static_cast<std::uint64_t>(
            per_file_ns > 0.0 ? std::llround(per_file_ns) : 0);
        latency[p].record_ns(ns);
        if (global_latency != nullptr) global_latency->record_ns(ns);
      }

      {
        MC_OBS_SCOPE("core.plan_driver.merge");
        run.report.merge_shard(shard_result.report, first);
      }
      run.decision_seconds += shard_result.decision_seconds;
      ++run.replanned_shards;
      cache_[p][s].report = std::move(shard_result.report);
      cache_[p][s].decide_seconds = shard_result.decision_seconds;
      own_seconds[p] += own.seconds();
    }
    MC_OBS_COUNT("core.plan_driver.shards", 1);
    MC_OBS_COUNT("core.plan_driver.files", count);

    reader_.release_frequency_range(first, count);
  }

  double shared_seconds = wall.seconds();
  for (const double seconds : own_seconds) shared_seconds -= seconds;
  for (std::size_t p = 0; p < policy_count; ++p) {
    PlanDriverRun& run = runs[p];
    const obs::TimerStats stats = latency[p].stats();
    run.file_decide_p50_ns = stats.percentile_ns(0.5);
    run.file_decide_p99_ns = stats.percentile_ns(0.99);
    if (decision_cache_) {
      // Residency fields report the current cache state (a delta of
      // entries would be meaningless).
      const DecisionCacheStats now = decision_cache_->stats();
      run.cache_stats.entries = now.entries;
      run.cache_stats.resident_bytes = now.resident_bytes;
    }
    run.wall_seconds = shared_seconds + own_seconds[p];
  }
  return runs;
}

}  // namespace minicost::core
