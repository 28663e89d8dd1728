#pragma once
// The cloud-storage service simulator. Plays a tier-assignment plan against
// a request trace under a pricing policy and produces the bill the CSP
// would charge (paper Sec. 4: pay-as-you-go on operations, size, storage
// duration, and tier changes).
//
// Timeline convention: a plan assigns each file a tier *for each day*. At
// the start of day t the file is moved to plan[t] (charging Cc if it
// differs from its day t-1 tier); all of day t's requests and storage are
// then billed at plan[t]'s prices. Day 0 placements are free by default
// (initial upload, no re-tiering happened).

#include <cstddef>
#include <span>
#include <vector>

#include "pricing/policy.hpp"
#include "sim/billing.hpp"
#include "sim/cost_model.hpp"
#include "trace/trace.hpp"

namespace minicost::util {
class ThreadPool;
}  // namespace minicost::util

namespace minicost::sim {

/// Tier of every file for one day; index = FileId.
using DayPlan = std::vector<pricing::StorageTier>;
/// Plans for a run of consecutive days; index = day.
using HorizonPlan = std::vector<DayPlan>;

/// Files per billing chunk: the unit of parallel work and of the
/// chunk-local report that the billing kernel folds with merge_shard. Fixed,
/// so the grouping never depends on the pool size (and exact day totals make
/// every grouping produce the same bytes anyway, DESIGN.md §9).
inline constexpr std::size_t kBillingChunkFiles = 1024;

struct SimulatorOptions {
  /// Tier every file starts in before day 0 (the "type specified by the
  /// cloud customer", Sec. 5.1). Ignored when initial_tiers is non-empty.
  pricing::StorageTier initial_tier = pricing::StorageTier::kHot;
  /// Per-file starting tiers (index = FileId); empty = uniform initial_tier.
  std::vector<pricing::StorageTier> initial_tiers;
  /// Charge Cc when day 0's plan differs from the starting tier. Off by
  /// default: the initial placement is part of the upload, not a re-tiering.
  bool charge_initial_placement = false;
  /// Pool for billing; nullptr = the process-shared pool. The cost model is
  /// separable across files (DESIGN.md §9), so the kernel bills
  /// kBillingChunkFiles-file chunks in parallel, each file's days in order
  /// into a chunk-local report, and folds the chunks with merge_shard — the
  /// bill is byte-identical for every pool size.
  util::ThreadPool* pool = nullptr;
};

class StorageSimulator {
 public:
  /// The trace and policy are borrowed; both must outlive the simulator.
  StorageSimulator(const trace::RequestTrace& trace,
                   const pricing::PricingPolicy& policy,
                   SimulatorOptions options = {});

  /// Applies one day's plan and bills it: run() over a one-day plan. Days
  /// must be advanced in order; throws std::invalid_argument on a plan of the
  /// wrong width and std::out_of_range past the trace horizon.
  void advance(const DayPlan& plan);

  /// Advances through all days of `plan` from current_day(). Returns the
  /// final report. From day 0, a day-by-day advance() loop gives the same
  /// bytes. Throws like advance(), before billing anything.
  const BillingReport& run(const HorizonPlan& plan);

  std::size_t current_day() const noexcept { return day_; }
  const std::vector<pricing::StorageTier>& current_tiers() const noexcept {
    return tiers_;
  }
  const BillingReport& report() const noexcept { return report_; }

  /// Resets to day 0 and the initial tier, clearing the bill.
  void reset();

 private:
  const trace::RequestTrace& trace_;
  const pricing::PricingPolicy& policy_;
  SimulatorOptions options_;
  std::size_t day_ = 0;
  std::vector<pricing::StorageTier> tiers_;
  BillingReport report_;

  void run_days(std::span<const DayPlan> plan);
};

/// One-shot convenience: bill `plan` over `trace` under `policy`.
BillingReport simulate(const trace::RequestTrace& trace,
                       const pricing::PricingPolicy& policy,
                       const HorizonPlan& plan, SimulatorOptions options = {});

/// Bills `plan` over trace days [first_day, first_day + plan.size()) of
/// `trace` in place: report day t is trace day first_day + t. Byte-identical
/// to simulate() over trace.window(first_day, plan.size()), without copying
/// the window. Throws like StorageSimulator::run.
BillingReport simulate_window(const trace::RequestTrace& trace,
                              const pricing::PricingPolicy& policy,
                              const HorizonPlan& plan, std::size_t first_day,
                              const SimulatorOptions& options = {});

/// Bills a single file's tier sequence (used by the per-file planners; the
/// cost model is separable across files, see DESIGN.md). `tiers[t]` is the
/// file's tier on day t; day 0 is free unless charge_initial.
double file_sequence_cost(const pricing::PricingPolicy& policy,
                          const trace::FileRecord& file,
                          const std::vector<pricing::StorageTier>& tiers,
                          pricing::StorageTier initial_tier,
                          bool charge_initial = false);

}  // namespace minicost::sim
