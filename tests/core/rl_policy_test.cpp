#include "core/rl_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/decision_cache.hpp"
#include "core/planner.hpp"
#include "obs/metrics.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

trace::RequestTrace make_trace() {
  trace::SyntheticConfig config;
  config.file_count = 40;
  config.days = 40;
  config.seed = 101;
  return trace::generate_synthetic(config);
}

rl::A3CAgent make_agent() {
  rl::A3CConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.workers = 1;
  return rl::A3CAgent(config, 11);
}

TEST(RlPolicyTest, NameAndKnowledge) {
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  EXPECT_EQ(policy.name(), "MiniCost");
  EXPECT_EQ(policy.knowledge(), Knowledge::kHistory);
}

TEST(RlPolicyTest, StaysPutBeforeFullHistory) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  const std::vector<pricing::StorageTier> initial(tr.file_count(),
                                                  pricing::StorageTier::kCool);
  const PlanContext context{tr, azure, 0, tr.days(), initial};
  EXPECT_EQ(policy.decide(context, 0, 3, pricing::StorageTier::kCool),
            pricing::StorageTier::kCool);
}

TEST(RlPolicyTest, GreedyDecisionsAreDeterministic) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  PlanOptions options;
  options.start_day = 20;
  const PlanResult a = run_policy(tr, azure, policy, options);
  const PlanResult b = run_policy(tr, azure, policy, options);
  EXPECT_EQ(a.plan, b.plan);
}

TEST(RlPolicyTest, DecideDayMatchesScalarDecide) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  const std::vector<pricing::StorageTier> current(tr.file_count(),
                                                  pricing::StorageTier::kCool);
  const PlanContext context{tr, azure, 14, tr.days(), current};
  // Before the history warmup the batch path must also hold tiers.
  std::vector<pricing::StorageTier> batch(tr.file_count());
  policy.decide_day(context, 3, current, batch);
  EXPECT_EQ(batch, current);
  // After warmup: one act_batch call equals the per-file act loop.
  policy.decide_day(context, 25, current, batch);
  for (trace::FileId f = 0; f < tr.file_count(); ++f)
    EXPECT_EQ(batch[f], policy.decide(context, f, 25, current[f]))
        << "file " << f;
}

// Fig. 2-shaped workload: integral counts repeat across files and days, so
// the cached path actually exercises hits and intra-batch dedup.
trace::RequestTrace make_integral_trace() {
  trace::SyntheticConfig config;
  config.file_count = 60;
  config.days = 40;
  config.seed = 77;
  config.integral_counts = true;
  return trace::generate_synthetic(config);
}

// The dedup decide path's adversary: the integral trace plus, for 20 of
// its files, an exact duplicate and near-duplicates that differ from the
// original in exactly one decision input — size_gb or every write rate or
// every read by one ulp, size_gb or every write rate by one, or the
// current tier. One more file reads the same count every day, so its
// window repeats across days and only the day phase tells them apart.
struct DedupCase {
  trace::RequestTrace trace;
  std::vector<pricing::StorageTier> tiers;
};

DedupCase make_dedup_case() {
  const trace::RequestTrace base = make_integral_trace();
  const auto tier_of = [](std::size_t k) {
    return pricing::tier_from_index(
        static_cast<rl::Action>(k % pricing::kTierCount));
  };
  std::vector<trace::FileRecord> files = base.files();
  std::vector<pricing::StorageTier> tiers;
  for (std::size_t k = 0; k < files.size(); ++k) tiers.push_back(tier_of(k));
  const auto add = [&](std::size_t k, const std::string& tag,
                       const auto& edit, pricing::StorageTier tier) {
    trace::FileRecord f = base.file(k);
    f.name += "-" + tag;
    edit(f);
    files.push_back(std::move(f));
    tiers.push_back(tier);
  };
  const auto ulp_up = [](double& v) {
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
  };
  for (std::size_t k = 0; k < 20; ++k) {
    const pricing::StorageTier tier = tier_of(k);
    add(k, "dup", [](trace::FileRecord&) {}, tier);
    add(k, "size-ulp", [&](trace::FileRecord& f) { ulp_up(f.size_gb); }, tier);
    add(k, "size-one", [](trace::FileRecord& f) { f.size_gb += 1.0; }, tier);
    add(k, "write-ulp",
        [&](trace::FileRecord& f) {
          std::for_each(f.writes.begin(), f.writes.end(), ulp_up);
        },
        tier);
    add(k, "write-one",
        [](trace::FileRecord& f) { for (double& w : f.writes) w += 1.0; },
        tier);
    add(k, "read-ulp",
        [&](trace::FileRecord& f) {
          std::for_each(f.reads.begin(), f.reads.end(), ulp_up);
        },
        tier);
    add(k, "tier", [](trace::FileRecord&) {}, tier_of(k + 1));
  }
  files.push_back({"steady", 0.5, std::vector<double>(base.days(), 3.0),
                   std::vector<double>(base.days(), 1.0)});
  tiers.push_back(pricing::StorageTier::kCool);
  return {trace::RequestTrace(base.days(), std::move(files)),
          std::move(tiers)};
}

TEST(RlPolicyTest, DedupDecideDayEqualsPerFileActBatch) {
  const DedupCase dedup = make_dedup_case();
  const trace::RequestTrace& tr = dedup.trace;
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  util::ThreadPool pool1(1), pool4(4);
  for (const bool greedy : {true, false}) {
    for (util::ThreadPool* pool : {&pool1, &pool4}) {
      for (const bool with_cache : {false, true}) {
        rl::A3CAgent agent = make_agent();
        RlPolicy policy(agent, greedy);
        DecisionCache cache;
        PlanContext context{tr, azure, 20, tr.days(), dedup.tiers, pool};
        if (with_cache) context.decision_cache = &cache;
        // Consecutive days, so the steady file's window repeats with only
        // the day phase changed — a cache must not serve it across days.
        for (std::size_t day = 20; day < 30; ++day) {
          SCOPED_TRACE("greedy=" + std::to_string(greedy) +
                       " pool=" + std::to_string(pool->size()) +
                       " cache=" + std::to_string(with_cache) +
                       " day=" + std::to_string(day));
          const std::vector<rl::Action> reference = agent.act_batch(
              tr.files(), day, dedup.tiers, greedy, /*pool=*/nullptr);
          std::vector<pricing::StorageTier> plan(tr.file_count());
          policy.decide_day(context, day, dedup.tiers, plan);
          for (std::size_t i = 0; i < tr.file_count(); ++i)
            ASSERT_EQ(plan[i], pricing::tier_from_index(reference[i]))
                << "file " << tr.file(i).name;
        }
      }
    }
  }
}

TEST(RlPolicyTest, DedupCountersReportRowsAndUniqueRows) {
  const DedupCase dedup = make_dedup_case();
  const trace::RequestTrace& tr = dedup.trace;
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  const PlanContext context{tr, azure, 20, tr.days(), dedup.tiers};
  const std::size_t day = 25;
  const std::size_t h = agent.featurizer().history_len();
  // Oracle: the distinct (read window, write rate, size, tier) bit
  // patterns of the day.
  std::set<std::vector<std::uint64_t>> states;
  for (std::size_t i = 0; i < tr.file_count(); ++i) {
    const trace::FileRecord& f = tr.file(i);
    const auto window =
        std::span<const double>(f.reads).subspan(day - h, h);
    std::vector<double> state(window.begin(), window.end());
    state.push_back(f.writes[day - 1]);
    state.push_back(f.size_gb);
    state.push_back(static_cast<double>(pricing::tier_index(dedup.tiers[i])));
    std::vector<std::uint64_t> bits(state.size());
    std::memcpy(bits.data(), state.data(), state.size() * sizeof(double));
    states.insert(std::move(bits));
  }

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& rows = obs::counter("core.rl.dedup.rows");
  obs::Counter& unique = obs::counter("core.rl.dedup.unique_rows");
  const std::uint64_t rows0 = rows.value();
  const std::uint64_t unique0 = unique.value();
  std::vector<pricing::StorageTier> plan(tr.file_count());
  policy.decide_day(context, day, dedup.tiers, plan);
  const std::uint64_t rows_added = rows.value() - rows0;
  const std::uint64_t unique_added = unique.value() - unique0;
  obs::set_enabled(was_enabled);
  // No cache: every file enters the dedup and each distinct state is
  // forwarded once; at least the 20 exact duplicates collapse.
  EXPECT_EQ(rows_added, tr.file_count());
  EXPECT_EQ(unique_added, states.size());
  EXPECT_LE(unique_added, tr.file_count() - 20);
}

TEST(RlPolicyTest, CachedPlanIsBitIdenticalToUncached) {
  const trace::RequestTrace tr = make_integral_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  PlanOptions options;
  options.start_day = 20;
  const PlanResult uncached = run_policy(tr, azure, policy, options);

  DecisionCache cache;
  options.decision_cache = &cache;
  const PlanResult cached = run_policy(tr, azure, policy, options);
  EXPECT_EQ(uncached.plan, cached.plan);
  EXPECT_EQ(uncached.report.grand_total().total(),
            cached.report.grand_total().total());
  const DecisionCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u) << "integral workload should repeat states";

  util::ThreadPool pool(4);
  options.pool = &pool;
  DecisionCache pooled_cache;
  options.decision_cache = &pooled_cache;
  const PlanResult pooled = run_policy(tr, azure, policy, options);
  EXPECT_EQ(uncached.plan, pooled.plan);
}

TEST(RlPolicyTest, CachedPlanMatchesUncachedWhenSampling) {
  const trace::RequestTrace tr = make_integral_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent, /*greedy=*/false);
  PlanOptions options;
  options.start_day = 20;
  // Sampling forks one rng stream per decision *state*, so identical rows
  // sample identical actions and reuse stays safe even off-greedy.
  const PlanResult uncached = run_policy(tr, azure, policy, options);
  DecisionCache cache;
  options.decision_cache = &cache;
  const PlanResult cached = run_policy(tr, azure, policy, options);
  EXPECT_EQ(uncached.plan, cached.plan);
}

TEST(RlPolicyTest, WarmCacheReplansIdentically) {
  const trace::RequestTrace tr = make_integral_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  PlanOptions options;
  options.start_day = 20;
  DecisionCache cache;
  options.decision_cache = &cache;
  const PlanResult cold = run_policy(tr, azure, policy, options);
  const DecisionCacheStats after_cold = cache.stats();
  const PlanResult warm = run_policy(tr, azure, policy, options);
  const DecisionCacheStats after_warm = cache.stats();
  EXPECT_EQ(cold.plan, warm.plan);
  EXPECT_GT(after_warm.hits, after_cold.hits);
  // The second pass replays the same states: every probe must hit.
  EXPECT_EQ(after_warm.misses, after_cold.misses);
}

TEST(RlPolicyTest, DistinctAgentsNeverShareCacheEntries) {
  const trace::RequestTrace tr = make_integral_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent_a = make_agent();
  rl::A3CAgent agent_b(agent_a.config(), 99);  // different parameters
  RlPolicy policy_a(agent_a);
  RlPolicy policy_b(agent_b);
  PlanOptions options;
  options.start_day = 20;
  const PlanResult b_alone = run_policy(tr, azure, policy_b, options);

  // One cache serves both policies back to back; b's epoch differs, so a's
  // entries must be invisible to it and its plan unchanged.
  DecisionCache cache;
  options.decision_cache = &cache;
  (void)run_policy(tr, azure, policy_a, options);
  const PlanResult b_shared = run_policy(tr, azure, policy_b, options);
  EXPECT_EQ(b_alone.plan, b_shared.plan);
}

TEST(RlPolicyTest, SampledModeStillProducesValidTiers) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent, /*greedy=*/false);
  PlanOptions options;
  options.start_day = 20;
  const PlanResult result = run_policy(tr, azure, policy, options);
  for (const auto& day_plan : result.plan) {
    for (pricing::StorageTier t : day_plan) {
      EXPECT_LT(pricing::tier_index(t), pricing::kTierCount);
    }
  }
}

}  // namespace
}  // namespace minicost::core
