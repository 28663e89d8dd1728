// Optimal's per-file DP against an independent brute force: every Γ^D tier
// sequence of tiny instances (D <= 8 days, 3 tiers) is billed by the Eq. 5-9
// oracle (bill_oracle.hpp), and optimal_sequence's sequence must reach the
// cheapest of them. exhaustive_sequence cannot serve as this check: it
// prices through the same sim::file_day_cost_no_change and change_cost
// calls as the DP, so a shared pricing fault would pass both.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bill_oracle.hpp"
#include "core/optimal.hpp"
#include "util/rng.hpp"

namespace minicost::oracle {
namespace {

using pricing::PricingPolicy;
using pricing::StorageTier;

// The DP sums a few dozen double terms (relative error ~1e-16 each); the
// oracle sums in long double. 1e-12 absorbs both and still fails on any
// suboptimal sequence the instances can produce.
constexpr long double kRelTol = 1e-12L;

/// One random file over `days` days: a mix of dead, steady and bursty
/// traffic so the optimum moves between tiers.
trace::FileRecord random_file(util::Rng& rng, std::size_t days) {
  trace::FileRecord f;
  f.name = "f";
  f.size_gb = rng.uniform(0.0, 1.0) < 0.1 ? 0.0 : rng.uniform(0.001, 2.0);
  const double base =
      rng.uniform(0.0, 1.0) < 0.3 ? 0.0 : rng.uniform(0.0, 3.0);
  for (std::size_t d = 0; d < days; ++d) {
    const double burst =
        rng.uniform(0.0, 1.0) < 0.25 ? rng.uniform(5.0, 400.0) : 0.0;
    const double writes =
        rng.uniform(0.0, 1.0) < 0.2 ? std::round(rng.uniform(0.0, 20.0)) : 0.0;
    f.reads.push_back(std::round(base * rng.uniform(0.0, 2.0) + burst));
    f.writes.push_back(writes);
  }
  return f;
}

TEST(OptimalOracleTest, DpSequenceReachesTheBruteForceMinimum) {
  const PricingPolicy sheets[] = {
      PricingPolicy::azure_2020(), PricingPolicy::s3_like(),
      PricingPolicy::gcs_like(),
      pricing::with_op_price_multiplier(PricingPolicy::azure_2020(), 500.0)};
  constexpr std::size_t kT = pricing::kTierCount;
  util::Rng rng(2020);
  std::size_t instances = 0;
  std::size_t moving_optima = 0;
  for (const PricingPolicy& prices : sheets) {
    for (std::size_t window = 1; window <= 8; ++window) {
      for (int repeat = 0; repeat < 4; ++repeat) {
        const std::size_t lead = static_cast<std::size_t>(repeat % 2) * 2;
        const trace::FileRecord file = random_file(rng, lead + window);
        const auto initial = pricing::tier_from_index(
            static_cast<std::size_t>(rng.uniform_int(0, kT - 1)));
        const bool charge_initial = rng.uniform(0.0, 1.0) < 0.5;

        // Sequence s puts the file in tier digit t of s (base Γ) on window
        // day t; one oracle call bills all Γ^window of them side by side.
        std::size_t sequences = 1;
        for (std::size_t t = 0; t < window; ++t) sequences *= kT;
        const trace::RequestTrace copies(
            lead + window, std::vector<trace::FileRecord>(sequences, file));
        std::vector<std::vector<StorageTier>> plan(
            window, std::vector<StorageTier>(sequences));
        for (std::size_t s = 0; s < sequences; ++s) {
          std::size_t rest = s;
          for (std::size_t t = 0; t < window; ++t) {
            plan[t][s] = pricing::tier_from_index(rest % kT);
            rest /= kT;
          }
        }
        const OracleBill bill =
            oracle_bill(copies, prices, plan, lead,
                        std::vector<StorageTier>(sequences, initial),
                        charge_initial);
        const long double minimum =
            *std::min_element(bill.per_file.begin(), bill.per_file.end());

        const core::OptimalSequence dp = core::optimal_sequence(
            prices, file, lead, lead + window, initial, charge_initial);
        ASSERT_EQ(dp.tiers.size(), window);
        std::size_t code = 0;
        for (std::size_t t = window; t-- > 0;)
          code = code * kT + pricing::tier_index(dp.tiers[t]);

        SCOPED_TRACE(prices.name() + " window=" + std::to_string(window) +
                     " lead=" + std::to_string(lead) +
                     " repeat=" + std::to_string(repeat));
        const long double slack = kRelTol * minimum;
        EXPECT_LE(bill.per_file[code] - minimum, slack)
            << "DP sequence bills " << static_cast<double>(bill.per_file[code])
            << ", brute-force minimum " << static_cast<double>(minimum);
        EXPECT_LE(std::fabs(static_cast<long double>(dp.cost) - minimum), slack)
            << "DP cost " << dp.cost;
        ++instances;
        const bool moves =
            dp.tiers.front() != initial ||
            std::any_of(dp.tiers.begin(), dp.tiers.end(), [&](StorageTier t) {
              return t != dp.tiers.front();
            });
        if (moves) ++moving_optima;
      }
    }
  }
  EXPECT_EQ(instances, 4u * 8u * 4u);
  // Not vacuous: most optima leave the initial tier or move mid-window.
  EXPECT_GT(moving_optima, instances / 4);
}

}  // namespace
}  // namespace minicost::oracle
