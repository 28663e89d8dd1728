#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

using pricing::StorageTier;

trace::RequestTrace make_trace(std::size_t files = 100) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = 40;
  config.seed = 29;
  return trace::generate_synthetic(config);
}

TEST(RunPolicyTest, PlanCoversWindowExactly) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  auto hot = make_hot_policy();
  PlanOptions options;
  options.start_day = 14;
  options.end_day = 34;
  const PlanResult result = run_policy(tr, azure, *hot, options);
  EXPECT_EQ(result.plan.size(), 20u);
  EXPECT_EQ(result.plan[0].size(), tr.file_count());
  EXPECT_EQ(result.report.days(), 20u);
  EXPECT_EQ(result.day_seconds.size(), 20u);
  EXPECT_GT(result.decision_seconds, 0.0);
  EXPECT_EQ(result.policy_name, "Hot");
}

TEST(RunPolicyTest, DefaultEndIsTraceEnd) {
  const trace::RequestTrace tr = make_trace(20);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  auto hot = make_hot_policy();
  PlanOptions options;
  options.start_day = 10;
  const PlanResult result = run_policy(tr, azure, *hot, options);
  EXPECT_EQ(result.plan.size(), 30u);
}

TEST(RunPolicyTest, RejectsBadWindows) {
  const trace::RequestTrace tr = make_trace(10);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  auto hot = make_hot_policy();
  PlanOptions options;
  options.start_day = 40;
  EXPECT_THROW(run_policy(tr, azure, *hot, options), std::invalid_argument);
  options.start_day = 10;
  options.end_day = 99;
  EXPECT_THROW(run_policy(tr, azure, *hot, options), std::invalid_argument);
}

TEST(RunPolicyTest, RejectsInitialTiersWidthMismatch) {
  const trace::RequestTrace tr = make_trace(10);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  auto hot = make_hot_policy();
  PlanOptions options;
  options.start_day = 5;
  options.initial_tiers.assign(3, StorageTier::kHot);
  EXPECT_THROW(run_policy(tr, azure, *hot, options), std::invalid_argument);
}

TEST(RunPolicyTest, OptimalBilledCostMatchesPlannedCost) {
  // End-to-end consistency: the DP's internal cost equals the simulator's
  // independent billing of the produced plan.
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  OptimalPolicy optimal;
  PlanOptions options;
  options.start_day = 14;
  options.initial_tiers = static_initial_tiers(tr, azure, 14);
  const PlanResult result = run_policy(tr, azure, optimal, options);
  EXPECT_NEAR(result.report.grand_total().total(), optimal.planned_cost(),
              1e-9);
}

TEST(RunPolicyTest, OptimalNeverCostsMoreThanAnyOtherPolicy) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  PlanOptions options;
  options.start_day = 14;
  options.initial_tiers = static_initial_tiers(tr, azure, 14);

  OptimalPolicy optimal;
  const double opt = run_policy(tr, azure, optimal, options)
                         .report.grand_total()
                         .total();
  auto hot = make_hot_policy();
  auto cold = make_cold_policy();
  GreedyPolicy greedy;
  for (TieringPolicy* policy :
       std::initializer_list<TieringPolicy*>{hot.get(), cold.get(), &greedy}) {
    const double cost =
        run_policy(tr, azure, *policy, options).report.grand_total().total();
    EXPECT_GE(cost, opt - 1e-9) << policy->name();
  }
}

TEST(RunPolicyTest, MidTraceBillEqualsBillingAWindowCopy) {
  // run_policy bills the window in place; the bytes must be those of
  // billing a trace.window() copy of it.
  trace::SyntheticConfig config;
  config.file_count = sim::kBillingChunkFiles + 3;
  config.days = 40;
  config.seed = 31;
  const trace::RequestTrace tr = trace::generate_synthetic(config);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  util::ThreadPool one(1), four(4);
  for (util::ThreadPool* pool : {&one, &four}) {
    GreedyPolicy greedy;
    PlanOptions options;
    options.start_day = 14;
    options.end_day = 34;
    options.initial_tiers = static_initial_tiers(tr, azure, 14);
    options.pool = pool;
    const PlanResult result = run_policy(tr, azure, greedy, options);
    ASSERT_GT(result.report.tier_changes(), 0u);

    sim::SimulatorOptions copy_options;
    copy_options.initial_tiers = options.initial_tiers;
    copy_options.charge_initial_placement = options.charge_initial_placement;
    copy_options.pool = pool;
    const sim::BillingReport copy =
        sim::simulate(tr.window(14, 20), azure, result.plan, copy_options);

    ASSERT_EQ(result.report.days(), copy.days());
    for (std::size_t d = 0; d < copy.days(); ++d) {
      const sim::CostBreakdown& a = result.report.day(d);
      const sim::CostBreakdown& b = copy.day(d);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.storage),
                std::bit_cast<std::uint64_t>(b.storage)) << "day " << d;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.read),
                std::bit_cast<std::uint64_t>(b.read)) << "day " << d;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.write),
                std::bit_cast<std::uint64_t>(b.write)) << "day " << d;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.change),
                std::bit_cast<std::uint64_t>(b.change)) << "day " << d;
      EXPECT_EQ(result.report.tier_changes_on(d), copy.tier_changes_on(d));
    }
    for (std::size_t f = 0; f < copy.file_count(); ++f)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(result.report.per_file_totals()[f]),
                std::bit_cast<std::uint64_t>(copy.per_file_totals()[f]))
          << "file " << f;
  }
}

TEST(StaticInitialTiersTest, TwoTierDefaultAvoidsArchive) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const auto tiers = static_initial_tiers(tr, azure, 14);
  ASSERT_EQ(tiers.size(), tr.file_count());
  for (StorageTier t : tiers) EXPECT_NE(t, StorageTier::kArchive);
}

TEST(StaticInitialTiersTest, ThreeTierVariantUsesArchive) {
  const trace::RequestTrace tr = make_trace(400);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const auto tiers =
      static_initial_tiers(tr, azure, 14, /*include_archive=*/true);
  bool any_archive = false;
  for (StorageTier t : tiers) any_archive |= t == StorageTier::kArchive;
  EXPECT_TRUE(any_archive);  // most synthetic files are near-dead
}

TEST(StaticInitialTiersTest, PopularFilesLandInHot) {
  const trace::RequestTrace tr = make_trace(400);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const auto tiers = static_initial_tiers(tr, azure, 14);
  // The most popular file must be hot.
  trace::FileId popular = 0;
  double best = 0.0;
  for (trace::FileId i = 0; i < tr.file_count(); ++i) {
    double mean = 0.0;
    for (std::size_t t = 0; t < 14; ++t) mean += tr.reads(i, t);
    if (mean > best) {
      best = mean;
      popular = i;
    }
  }
  EXPECT_EQ(tiers[popular], StorageTier::kHot);
}

TEST(StaticInitialTiersTest, RejectsBadWindow) {
  const trace::RequestTrace tr = make_trace(10);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  EXPECT_THROW(static_initial_tiers(tr, azure, 0), std::invalid_argument);
  EXPECT_THROW(static_initial_tiers(tr, azure, 99), std::invalid_argument);
}

}  // namespace
}  // namespace minicost::core
