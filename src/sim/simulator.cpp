#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace minicost::sim {
namespace {

std::vector<pricing::StorageTier> starting_tiers(
    const SimulatorOptions& options, std::size_t files) {
  if (options.initial_tiers.empty())
    return std::vector<pricing::StorageTier>(files, options.initial_tier);
  if (options.initial_tiers.size() != files)
    throw std::invalid_argument(
        "StorageSimulator: initial_tiers width mismatch");
  return options.initial_tiers;
}

/// The one billing kernel. Bills plan[t] against trace day first_day + t
/// into report day report_day + t. Files are walked in kBillingChunkFiles
/// chunks over the pool; inside a chunk each file's days are priced in day
/// order (from its hoisted FileTierRates: file_day_cost_no_change's bits)
/// and charged into a chunk-local report, and the chunk reports are
/// folded into `report` in chunk order with merge_shard. Day totals are
/// ExactSums, so the grouping cannot change their bytes; a file's total is
/// folded in day order inside its one chunk (DESIGN.md §9). `tiers` holds
/// every file's tier entering the plan and leaves holding its last tier.
/// Everything is validated before anything is billed.
void bill_file_major(const trace::RequestTrace& trace,
                     const pricing::PricingPolicy& policy,
                     std::span<const DayPlan> plan, std::size_t first_day,
                     std::size_t report_day, bool charge_initial_placement,
                     std::span<pricing::StorageTier> tiers,
                     util::ThreadPool* pool, BillingReport& report) {
  if (first_day + plan.size() > trace.days() ||
      report_day + plan.size() > report.days())
    throw std::out_of_range(
        "StorageSimulator: plan runs past the trace horizon");
  const std::size_t n = trace.file_count();
  for (const DayPlan& day_plan : plan)
    if (day_plan.size() != n)
      throw std::invalid_argument("StorageSimulator: plan width " +
                                  std::to_string(day_plan.size()) +
                                  " != file count " + std::to_string(n));
  MC_OBS_SCOPE("sim.simulator.run");
  MC_OBS_COUNT("sim.simulator.file_days", plan.size() * n);

  const std::vector<trace::FileRecord>& files = trace.files();
  const std::size_t chunks = (n + kBillingChunkFiles - 1) / kBillingChunkFiles;
  std::vector<BillingReport> partial(chunks);
  const auto bill_chunk = [&](std::size_t c) {
    const std::size_t first = c * kBillingChunkFiles;
    const std::size_t count = std::min(kBillingChunkFiles, n - first);
    BillingReport local(count, report.days());
    for (std::size_t k = 0; k < count; ++k) {
      const trace::FileRecord& f = files[first + k];
      const double* reads = f.reads.data() + first_day;
      const double* writes = f.writes.data() + first_day;
      std::array<FileTierRates, pricing::kTierCount> rates;
      for (const pricing::StorageTier tier : pricing::all_tiers())
        rates[pricing::tier_index(tier)] =
            file_tier_rates(policy, tier, f.size_gb);
      pricing::StorageTier previous = tiers[first + k];
      for (std::size_t t = 0; t < plan.size(); ++t) {
        const pricing::StorageTier tier = plan[t][first + k];
        const std::size_t day = report_day + t;
        const FileTierRates& rate = rates[pricing::tier_index(tier)];
        CostBreakdown cost{rate.storage, reads[t] * rate.read,
                           writes[t] * rate.write, 0.0};
        if (tier != previous) {
          if (day > 0 || charge_initial_placement)
            cost.change = policy.change_cost(previous, tier, f.size_gb);
          local.count_change(day);
          previous = tier;
        }
        local.charge(static_cast<trace::FileId>(k), day, cost);
      }
      tiers[first + k] = previous;
    }
    partial[c] = std::move(local);
  };
  util::ThreadPool& workers = pool ? *pool : util::ThreadPool::shared();
  workers.parallel_for(0, chunks, bill_chunk);
  for (std::size_t c = 0; c < chunks; ++c)
    report.merge_shard(partial[c], c * kBillingChunkFiles);
}

}  // namespace

StorageSimulator::StorageSimulator(const trace::RequestTrace& trace,
                                   const pricing::PricingPolicy& policy,
                                   SimulatorOptions options)
    : trace_(trace),
      policy_(policy),
      options_(std::move(options)),
      tiers_(starting_tiers(options_, trace.file_count())),
      report_(trace.file_count(), trace.days()) {}

void StorageSimulator::advance(const DayPlan& plan) {
  run_days(std::span<const DayPlan>(&plan, 1));
}

const BillingReport& StorageSimulator::run(const HorizonPlan& plan) {
  run_days(plan);
  return report_;
}

void StorageSimulator::run_days(std::span<const DayPlan> plan) {
  bill_file_major(trace_, policy_, plan, day_, day_,
                  options_.charge_initial_placement, tiers_, options_.pool,
                  report_);
  day_ += plan.size();
}

void StorageSimulator::reset() {
  day_ = 0;
  tiers_ = starting_tiers(options_, trace_.file_count());
  report_ = BillingReport(trace_.file_count(), trace_.days());
}

BillingReport simulate(const trace::RequestTrace& trace,
                       const pricing::PricingPolicy& policy,
                       const HorizonPlan& plan, SimulatorOptions options) {
  StorageSimulator sim(trace, policy, std::move(options));
  sim.run(plan);
  return sim.report();
}

BillingReport simulate_window(const trace::RequestTrace& trace,
                              const pricing::PricingPolicy& policy,
                              const HorizonPlan& plan, std::size_t first_day,
                              const SimulatorOptions& options) {
  std::vector<pricing::StorageTier> tiers =
      starting_tiers(options, trace.file_count());
  BillingReport report(trace.file_count(), plan.size());
  bill_file_major(trace, policy, plan, first_day, 0,
                  options.charge_initial_placement, tiers, options.pool,
                  report);
  return report;
}

double file_sequence_cost(const pricing::PricingPolicy& policy,
                          const trace::FileRecord& file,
                          const std::vector<pricing::StorageTier>& tiers,
                          pricing::StorageTier initial_tier,
                          bool charge_initial) {
  double total = 0.0;
  pricing::StorageTier previous = initial_tier;
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    CostBreakdown cost = file_day_cost_no_change(
        policy, tiers[t], file.reads.at(t), file.writes.at(t), file.size_gb);
    if (tiers[t] != previous && (t > 0 || charge_initial))
      cost.change = policy.change_cost(previous, tiers[t], file.size_gb);
    total += cost.total();
    previous = tiers[t];
  }
  return total;
}

}  // namespace minicost::sim
