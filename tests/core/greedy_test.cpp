#include "core/greedy.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "sim/cost_model.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

using pricing::PricingPolicy;
using pricing::StorageTier;

// A trace with one controllable file.
trace::RequestTrace one_file(std::vector<double> reads) {
  std::vector<trace::FileRecord> files;
  const std::size_t days = reads.size();
  trace::FileRecord f;
  f.name = "f";
  f.size_gb = 0.1;
  f.reads = std::move(reads);
  f.writes.assign(days, 0.0);
  files.push_back(std::move(f));
  return trace::RequestTrace(days, std::move(files));
}

TEST(GreedyPolicyTest, UsesYesterdaysObservation) {
  // Day 2 rates are huge but yesterday (day 1) was dead: greedy keeps cool.
  const trace::RequestTrace tr = one_file({0.0, 0.0, 500.0, 500.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 4, initial};
  GreedyPolicy greedy;
  EXPECT_EQ(greedy.decide(context, 0, 2, StorageTier::kCool),
            StorageTier::kCool);
  // On day 3 it has seen day 2's burst and moves to hot.
  EXPECT_EQ(greedy.decide(context, 0, 3, StorageTier::kCool),
            StorageTier::kHot);
}

TEST(GreedyPolicyTest, ClairvoyantSeesTheDecisionDay) {
  const trace::RequestTrace tr = one_file({0.0, 0.0, 500.0, 500.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 4, initial};
  ClairvoyantGreedyPolicy oracle;
  EXPECT_EQ(oracle.decide(context, 0, 2, StorageTier::kCool),
            StorageTier::kHot);
}

TEST(GreedyPolicyTest, TwoTierGreedyNeverEntersArchive) {
  // The paper's Greedy weighs hot vs cold only.
  const trace::RequestTrace tr = one_file({0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 6, initial};
  GreedyPolicy greedy;
  StorageTier tier = StorageTier::kCool;
  for (std::size_t day = 1; day < 6; ++day) {
    tier = greedy.decide(context, 0, day, tier);
    EXPECT_NE(tier, StorageTier::kArchive);
  }
}

TEST(GreedyPolicyTest, ThreeTierVariantUsesArchiveForDeadFiles) {
  const trace::RequestTrace tr = one_file({0.0, 0.0, 0.0, 0.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 4, initial};
  GreedyPolicy greedy3(/*include_archive=*/true);
  EXPECT_EQ(greedy3.decide(context, 0, 1, StorageTier::kCool),
            StorageTier::kArchive);
}

TEST(GreedyPolicyTest, TwoTierGreedyMayKeepFileAlreadyInArchive) {
  // It never moves a file INTO archive, but an inherited archive placement
  // can persist when leaving costs more than staying.
  const trace::RequestTrace tr = one_file({0.0, 0.0, 0.0, 0.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kArchive);
  const PlanContext context{tr, azure, 1, 4, initial};
  GreedyPolicy greedy;
  EXPECT_EQ(greedy.decide(context, 0, 1, StorageTier::kArchive),
            StorageTier::kArchive);
}

TEST(GreedyPolicyTest, ChangeCostCreatesHysteresis) {
  // A rate just above the hot/cool crossover: switching from cool is not
  // worth the change cost for one day, so greedy stays put.
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const double crossover = sim::tier_crossover_reads(
      azure, StorageTier::kHot, StorageTier::kCool, 0.1);
  const double slightly_above = crossover * 1.05;
  const trace::RequestTrace tr =
      one_file({slightly_above, slightly_above, slightly_above});
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 3, initial};
  GreedyPolicy greedy;
  EXPECT_EQ(greedy.decide(context, 0, 1, StorageTier::kCool),
            StorageTier::kCool);
}

// Batch vs scalar at 0 ULP: a trace wider than two decide_day chunks
// (1024 files each) with a partial last chunk, both archive rules, files
// entering every tier (archive under 2-tier Greedy too), exact price ties
// (zero-sized dead files under Azure prices; every file under the flat
// sheet, whose tiers and change price coincide), pool sizes 1 and 4, and
// both the online and the clairvoyant variant.
TEST(GreedyPolicyTest, DecideDayMatchesScalarDecide) {
  trace::SyntheticConfig config;
  config.file_count = 2 * 1024 + 301;
  config.days = 6;
  config.seed = 17;
  trace::RequestTrace generated = trace::generate_synthetic(config);
  std::vector<trace::FileRecord> files = generated.files();
  for (std::size_t i = 0; i < files.size(); i += 97) {
    files[i].size_gb = 0.0;  // every tier prices this file at exactly 0
    files[i].reads.assign(config.days, 0.0);
    files[i].writes.assign(config.days, 0.0);
  }
  const trace::RequestTrace tr(config.days, std::move(files));
  const std::size_t n = tr.file_count();

  const PricingPolicy sheets[] = {PricingPolicy::azure_2020(),
                                  PricingPolicy::flat_test()};
  for (const PricingPolicy& prices : sheets) {
    for (const bool include_archive : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        util::ThreadPool pool(threads);
        GreedyPolicy online(include_archive);
        ClairvoyantGreedyPolicy clairvoyant(include_archive);
        TieringPolicy* const variants[] = {&online, &clairvoyant};
        for (TieringPolicy* policy : variants) {
          EXPECT_TRUE(policy->thread_safe_decide());
          for (std::size_t day = 1; day < config.days; ++day) {
            std::vector<StorageTier> current(n);
            for (std::size_t i = 0; i < n; ++i)
              current[i] = pricing::tier_from_index((i + day) % 3);
            const PlanContext context{tr, prices, 1, config.days, current,
                                      &pool};
            std::vector<StorageTier> batch(n);
            policy->decide_day(context, day, current, batch);
            std::size_t mismatches = 0;
            std::array<std::size_t, pricing::kTierCount> chosen{};
            for (std::size_t i = 0; i < n; ++i) {
              ++chosen[pricing::tier_index(batch[i])];
              if (batch[i] != policy->decide(context,
                                             static_cast<trace::FileId>(i),
                                             day, current[i]))
                ++mismatches;
            }
            SCOPED_TRACE(prices.name() + " " + policy->name() +
                         " archive=" + std::to_string(include_archive) +
                         " threads=" + std::to_string(threads) +
                         " day=" + std::to_string(day));
            EXPECT_EQ(mismatches, 0u);
            // Not vacuous: real decisions under Azure prices, and under the
            // flat sheet every tie resolves to the first tier priced.
            if (prices.name() == "flat-test")
              EXPECT_EQ(chosen[pricing::tier_index(StorageTier::kHot)], n);
            else
              EXPECT_GT(chosen[pricing::tier_index(StorageTier::kCool)], 0u);
          }
        }
      }
    }
  }
}

TEST(GreedyPolicyTest, DecideDayRejectsWrongWidths) {
  const trace::RequestTrace tr = one_file({0.0, 1.0, 2.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 3, initial};
  GreedyPolicy greedy;
  std::vector<StorageTier> wide(2);
  EXPECT_THROW(greedy.decide_day(context, 1, initial, wide),
               std::invalid_argument);
}

TEST(GreedyPolicyTest, NamesAndKnowledge) {
  EXPECT_EQ(GreedyPolicy().name(), "Greedy");
  EXPECT_EQ(GreedyPolicy(true).name(), "Greedy-3tier");
  EXPECT_EQ(GreedyPolicy().knowledge(), Knowledge::kHistory);
  EXPECT_EQ(ClairvoyantGreedyPolicy().knowledge(), Knowledge::kNextDay);
}

}  // namespace
}  // namespace minicost::core
