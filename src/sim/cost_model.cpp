#include "sim/cost_model.hpp"

#include <limits>

namespace minicost::sim {

CostBreakdown file_day_cost(const pricing::PricingPolicy& policy,
                            pricing::StorageTier tier,
                            pricing::StorageTier previous_tier, double reads,
                            double writes, double gb) noexcept {
  CostBreakdown cost = file_day_cost_no_change(policy, tier, reads, writes, gb);
  cost.change = policy.change_cost(previous_tier, tier, gb);
  return cost;
}

FileTierRates file_tier_rates(const pricing::PricingPolicy& policy,
                              pricing::StorageTier tier, double gb) noexcept {
  return {policy.storage_cost_per_day(tier, gb),
          policy.read_cost(tier, 1.0, gb), policy.write_cost(tier, 1.0, gb)};
}

CostBreakdown file_day_cost_no_change(const pricing::PricingPolicy& policy,
                                      pricing::StorageTier tier, double reads,
                                      double writes, double gb) noexcept {
  // read_cost(tier, ops, gb) is ops * (unit price), and 1.0 * x == x, so
  // scaling the one-op rate gives the same bits.
  const FileTierRates rates = file_tier_rates(policy, tier, gb);
  return {rates.storage, reads * rates.read, writes * rates.write, 0.0};
}

pricing::StorageTier best_static_tier(const pricing::PricingPolicy& policy,
                                      double avg_reads, double avg_writes,
                                      double gb) noexcept {
  pricing::StorageTier best = pricing::StorageTier::kHot;
  double best_cost = std::numeric_limits<double>::infinity();
  for (pricing::StorageTier t : pricing::all_tiers()) {
    const double daily =
        file_day_cost_no_change(policy, t, avg_reads, avg_writes, gb).total();
    if (daily < best_cost) {
      best_cost = daily;
      best = t;
    }
  }
  return best;
}

double tier_crossover_reads(const pricing::PricingPolicy& policy,
                            pricing::StorageTier warmer,
                            pricing::StorageTier colder, double gb,
                            double write_read_ratio) noexcept {
  // Solve for r: storage_w + r*(read_w + rho*write_w) =
  //              storage_c + r*(read_c + rho*write_c)
  const double storage_delta = policy.storage_cost_per_day(warmer, gb) -
                               policy.storage_cost_per_day(colder, gb);
  const double per_read_warm =
      policy.read_cost(warmer, 1.0, gb) +
      write_read_ratio * policy.write_cost(warmer, 1.0, gb);
  const double per_read_cold =
      policy.read_cost(colder, 1.0, gb) +
      write_read_ratio * policy.write_cost(colder, 1.0, gb);
  const double access_delta = per_read_cold - per_read_warm;
  if (access_delta <= 0.0) {
    // Colder tier is cheaper (or equal) per access too: warmer never wins
    // unless its storage is also cheaper, in which case it always does.
    return storage_delta <= 0.0 ? 0.0
                                : std::numeric_limits<double>::infinity();
  }
  if (storage_delta <= 0.0) return 0.0;  // warmer cheaper at rest: always wins
  return storage_delta / access_delta;
}

}  // namespace minicost::sim
