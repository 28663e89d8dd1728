// PlanDriver: residency (one policy instance warm across runs), incremental
// dirty-shard re-planning spliced from cached per-shard bills, and the
// per-file decision-latency percentiles — all pinned against the monolithic
// run_policy reference bit for bit (DESIGN.md §11).

#include "core/plan_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/rl_policy.hpp"
#include "obs/metrics.hpp"
#include "rl/a3c.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_identical(const sim::BillingReport& a,
                      const sim::BillingReport& b) {
  ASSERT_EQ(a.days(), b.days());
  ASSERT_EQ(a.file_count(), b.file_count());
  const sim::CostBreakdown& ta = a.grand_total();
  const sim::CostBreakdown& tb = b.grand_total();
  EXPECT_EQ(bits(ta.storage), bits(tb.storage));
  EXPECT_EQ(bits(ta.read), bits(tb.read));
  EXPECT_EQ(bits(ta.write), bits(tb.write));
  EXPECT_EQ(bits(ta.change), bits(tb.change));
  for (std::size_t f = 0; f < a.file_count(); ++f)
    EXPECT_EQ(bits(a.file_total(f)), bits(b.file_total(f)));
  EXPECT_EQ(a.tier_changes(), b.tier_changes());
}

/// Greedy wrapped with a prepare() counter: prepare runs once per planned
/// shard, so the count pins both "the instance is reused across runs" and
/// "clean shards are spliced, not re-planned".
class CountingGreedy final : public TieringPolicy {
 public:
  std::string name() const override { return inner_.name(); }
  Knowledge knowledge() const noexcept override {
    return inner_.knowledge();
  }
  void prepare(const PlanContext& context) override {
    ++prepare_calls;
    inner_.prepare(context);
  }
  pricing::StorageTier decide(const PlanContext& context, trace::FileId file,
                              std::size_t day,
                              pricing::StorageTier current) override {
    return inner_.decide(context, file, day, current);
  }
  bool thread_safe_decide() const noexcept override {
    return inner_.thread_safe_decide();
  }

  std::size_t prepare_calls = 0;

 private:
  GreedyPolicy inner_;
};

class PlanDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("minicost_plan_driver_" + std::to_string(::getpid()) + ".mct");
    trace::SyntheticConfig config;
    config.file_count = 61;  // not a multiple of the shard size
    config.days = 10;
    config.seed = 23;
    store::pack_trace(trace::generate_synthetic(config), path_);
    reader_ = std::make_unique<store::TraceReader>(path_);
    prices_ = pricing::PricingPolicy::azure_2020();
  }
  void TearDown() override {
    reader_.reset();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  PlanResult monolithic(std::size_t start_day) {
    const trace::RequestTrace whole = reader_->materialize();
    GreedyPolicy policy;
    PlanOptions options;
    options.start_day = start_day;
    if (start_day > 0)
      options.initial_tiers = static_initial_tiers(whole, prices_, start_day);
    return run_policy(whole, prices_, policy, options);
  }

  PlanDriverOptions driver_options(std::size_t shard_files) const {
    PlanDriverOptions options;
    options.shard_files = shard_files;
    options.start_day = 3;
    return options;
  }

  std::filesystem::path path_;
  std::unique_ptr<store::TraceReader> reader_;
  pricing::PricingPolicy prices_;
};

TEST_F(PlanDriverTest, RunMatchesMonolithicAcrossPools) {
  const PlanResult reference = monolithic(3);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(threads);
    GreedyPolicy policy;
    PlanDriverOptions options = driver_options(7);
    options.pool = &pool;
    PlanDriver driver(*reader_, prices_, {&policy}, options);
    const PlanDriverRun run = driver.run().front();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run.shard_count, 9u);  // ceil(61 / 7)
    EXPECT_EQ(run.replanned_shards, 9u);
    expect_identical(run.report, reference.report);
  }
}

TEST_F(PlanDriverTest, CleanReplanSplicesEverythingFromCache) {
  GreedyPolicy policy;
  PlanDriver driver(*reader_, prices_, {&policy}, driver_options(7));
  const PlanDriverRun full = driver.run().front();
  EXPECT_EQ(driver.dirty_shard_count(), 0u);

  const PlanDriverRun spliced = driver.replan().front();
  EXPECT_EQ(spliced.replanned_shards, 0u);
  EXPECT_EQ(spliced.decision_seconds, 0.0);
  EXPECT_EQ(spliced.file_decide_p50_ns, 0.0);
  expect_identical(spliced.report, full.report);
}

TEST_F(PlanDriverTest, DirtySubsetReplanIsByteIdenticalToFullRun) {
  const PlanResult reference = monolithic(3);
  GreedyPolicy policy;
  PlanDriver driver(*reader_, prices_, {&policy}, driver_options(7));
  driver.run();

  // Files 10..24 live in shards 1..3 (width 7).
  driver.mark_dirty(10, 15);
  EXPECT_EQ(driver.dirty_shard_count(), 3u);
  const PlanDriverRun replan = driver.replan().front();
  EXPECT_EQ(replan.replanned_shards, 3u);
  EXPECT_EQ(driver.dirty_shard_count(), 0u);
  expect_identical(replan.report, reference.report);

  // The tail file lands in the short last shard.
  driver.mark_dirty(60, 1);
  const PlanDriverRun tail = driver.replan().front();
  EXPECT_EQ(tail.replanned_shards, 1u);
  expect_identical(tail.report, reference.report);
}

TEST_F(PlanDriverTest, MarkDirtyValidatesTheFileRange) {
  GreedyPolicy policy;
  PlanDriver driver(*reader_, prices_, {&policy}, driver_options(7));
  EXPECT_THROW(driver.mark_dirty(55, 7), std::out_of_range);
  EXPECT_THROW(driver.mark_dirty(61, 1), std::out_of_range);
  EXPECT_NO_THROW(driver.mark_dirty(61, 0));  // empty range, even at the end
  EXPECT_NO_THROW(driver.mark_dirty(60, 1));
}

TEST_F(PlanDriverTest, PolicyInstanceStaysWarmAcrossRuns) {
  CountingGreedy policy;
  PlanDriver driver(*reader_, prices_, {&policy}, driver_options(7));

  driver.run();
  EXPECT_EQ(policy.prepare_calls, 9u);  // one per shard

  driver.replan();  // clean: pure splice
  EXPECT_EQ(policy.prepare_calls, 9u);

  driver.mark_dirty(0, 1);
  driver.replan();  // one dirty shard
  EXPECT_EQ(policy.prepare_calls, 10u);

  driver.run();  // full re-plan reuses the same instance
  EXPECT_EQ(policy.prepare_calls, 19u);
}

TEST_F(PlanDriverTest, ReportsLatencyPercentilesAndTimings) {
  GreedyPolicy policy;
  const std::unique_ptr<TieringPolicy> hot = make_hot_policy();
  PlanDriver driver(*reader_, prices_, {&policy, hot.get()},
                    driver_options(7));
  const std::vector<PlanDriverRun> runs = driver.run();
  const PlanDriverRun& run = runs.front();
  EXPECT_GT(run.wall_seconds, 0.0);
  EXPECT_GT(run.decision_seconds, 0.0);
  EXPECT_GT(run.file_decide_p50_ns, 0.0);
  EXPECT_GE(run.file_decide_p99_ns, run.file_decide_p50_ns);
  EXPECT_EQ(run.start_day, 3u);
  EXPECT_EQ(run.policy_name, policy.name());
  // Each policy's wall is its own decide + bill + merge plus the shared
  // decode, so it covers at least its own decide time.
  for (const PlanDriverRun& r : runs) {
    SCOPED_TRACE(r.policy_name);
    EXPECT_GE(r.wall_seconds, r.decision_seconds);
  }
}

// One driver over {hot, cold, greedy, optimal} bills every policy byte for
// byte like a single-policy driver of its own, across shard sizes {1, 7,
// all} x pool sizes {1, 4} and a dirty-subset replan, while decoding each
// file once per run instead of once per policy.
TEST_F(PlanDriverTest, MultiPolicyRunMatchesOneDriverPerPolicy) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& materialized = obs::counter("store.reader.files_materialized");
  const auto make_policies = [] {
    std::vector<std::unique_ptr<TieringPolicy>> policies;
    policies.push_back(make_hot_policy());
    policies.push_back(make_cold_policy());
    policies.push_back(std::make_unique<GreedyPolicy>());
    policies.push_back(std::make_unique<OptimalPolicy>());
    return policies;
  };
  const std::size_t n = reader_->file_count();
  for (const std::size_t shard_files :
       {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("shard_files=" + std::to_string(shard_files) +
                   " threads=" + std::to_string(threads));
      util::ThreadPool pool(threads);
      PlanDriverOptions options = driver_options(shard_files);
      options.pool = &pool;

      const auto owned = make_policies();
      std::vector<TieringPolicy*> list;
      for (const auto& policy : owned) list.push_back(policy.get());
      PlanDriver driver(*reader_, prices_, list, options);
      std::uint64_t before = materialized.value();
      const std::vector<PlanDriverRun> runs = driver.run();
      EXPECT_EQ(materialized.value() - before, n);

      // Files 10..24: every shard width puts them in a strict subset of
      // the shards except the single whole-store shard.
      driver.mark_dirty(10, 15);
      const std::size_t dirty_shards = driver.dirty_shard_count();
      const std::size_t width = shard_files == 0 ? n : shard_files;
      const std::size_t dirty_files =
          std::min(n, (24 / width + 1) * width) - (10 / width) * width;
      before = materialized.value();
      const std::vector<PlanDriverRun> replans = driver.replan();
      EXPECT_EQ(materialized.value() - before, dirty_files);

      ASSERT_EQ(runs.size(), owned.size());
      ASSERT_EQ(replans.size(), owned.size());
      const auto alone_policies = make_policies();
      for (std::size_t p = 0; p < owned.size(); ++p) {
        PlanDriver single(*reader_, prices_, {alone_policies[p].get()},
                          options);
        const PlanDriverRun alone = single.run().front();
        SCOPED_TRACE(alone.policy_name);
        EXPECT_EQ(runs[p].policy_name, alone.policy_name);
        EXPECT_EQ(runs[p].shard_count, alone.shard_count);
        EXPECT_EQ(runs[p].replanned_shards, alone.replanned_shards);
        expect_identical(runs[p].report, alone.report);
        EXPECT_EQ(replans[p].replanned_shards, dirty_shards);
        expect_identical(replans[p].report, alone.report);
      }
    }
  }
  obs::set_enabled(was_enabled);
}

TEST_F(PlanDriverTest, RejectsAnEmptyOrNullPolicyList) {
  EXPECT_THROW(PlanDriver(*reader_, prices_, {}, driver_options(7)),
               std::invalid_argument);
  GreedyPolicy policy;
  EXPECT_THROW(PlanDriver(*reader_, prices_, {&policy, nullptr},
                          driver_options(7)),
               std::invalid_argument);
}

// The dedup-aware decision cache (DESIGN.md §15) behind the driver: every
// cell of {cache on, off} x shard sizes x pool sizes must bill the RL
// policy bit-identically, incremental replans included, and a cache-on run
// must surface its stats through PlanDriverRun.
TEST(PlanDriverDecisionCacheTest, OnOffIdenticalAcrossShardsPoolsAndReplans) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("minicost_plan_driver_cache_" + std::to_string(::getpid()) + ".mct");
  trace::SyntheticConfig config;
  config.file_count = 53;  // not a multiple of the shard size
  config.days = 40;
  config.seed = 31;
  config.integral_counts = true;  // Fig. 2-shaped: states actually repeat
  store::pack_trace(trace::generate_synthetic(config), path);
  const store::TraceReader reader(path);
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();

  rl::A3CConfig agent_config;
  agent_config.filters = 8;
  agent_config.hidden = 8;
  agent_config.workers = 1;
  rl::A3CAgent agent(agent_config, 11);
  RlPolicy policy(agent);

  PlanDriverOptions base;
  base.start_day = 20;

  base.decision_cache = false;
  PlanDriver reference_driver(reader, prices, {&policy}, base);
  const PlanDriverRun reference = reference_driver.run().front();
  EXPECT_EQ(reference.cache_stats.hits + reference.cache_stats.misses, 0u);

  for (const std::size_t shard_files : {std::size_t{7}, std::size_t{0}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::ThreadPool pool(threads);
      PlanDriverOptions options = base;
      options.shard_files = shard_files;
      options.pool = &pool;
      options.decision_cache = true;
      options.decision_cache_capacity = 4096;
      PlanDriver driver(reader, prices, {&policy}, options);
      const PlanDriverRun run = driver.run().front();
      SCOPED_TRACE("shard_files=" + std::to_string(shard_files) +
                   " threads=" + std::to_string(threads));
      expect_identical(run.report, reference.report);
      EXPECT_GT(run.cache_stats.hits + run.cache_stats.misses, 0u);
      EXPECT_GT(run.cache_stats.hits, 0u);
      EXPECT_LE(run.cache_stats.entries, 4096u);

      // Incremental replan against the warm cache: still bit-identical,
      // and the run-local stats are a delta (all hits on a replay).
      driver.mark_dirty(10, 5);
      const PlanDriverRun replan = driver.replan().front();
      expect_identical(replan.report, reference.report);
      EXPECT_GT(replan.cache_stats.hits, 0u);
      EXPECT_EQ(replan.cache_stats.misses, 0u)
          << "a warm replay of already-cached states must not miss";
    }
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

// probe_batch adds hits and misses to the obs registry once per batch; the
// bulk adds must lose no count, so the global counters move by exactly the
// run-local cache_stats deltas across a cached run and replan.
TEST(PlanDriverDecisionCacheTest, ObsCountersMatchRunCacheStats) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);  // before the driver builds its cache
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("minicost_plan_driver_obs_" + std::to_string(::getpid()) + ".mct");
  trace::SyntheticConfig config;
  config.file_count = 53;
  config.days = 40;
  config.seed = 37;
  config.integral_counts = true;
  store::pack_trace(trace::generate_synthetic(config), path);
  {
    const store::TraceReader reader(path);
    rl::A3CConfig agent_config;
    agent_config.filters = 8;
    agent_config.hidden = 8;
    agent_config.workers = 1;
    rl::A3CAgent agent(agent_config, 13);
    RlPolicy policy(agent);
    util::ThreadPool pool(4);
    PlanDriverOptions options;
    options.start_day = 20;
    options.shard_files = 7;
    options.pool = &pool;
    options.decision_cache = true;

    obs::Counter& hit = obs::counter("core.cache.hit");
    obs::Counter& miss = obs::counter("core.cache.miss");
    const std::uint64_t hit_before = hit.value();
    const std::uint64_t miss_before = miss.value();
    const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
    PlanDriver driver(reader, prices, {&policy}, options);
    const PlanDriverRun run = driver.run().front();
    driver.mark_dirty(10, 20);
    const PlanDriverRun replan = driver.replan().front();
    EXPECT_GT(run.cache_stats.misses, 0u);
    EXPECT_GT(replan.cache_stats.hits, 0u);
    EXPECT_EQ(hit.value() - hit_before,
              run.cache_stats.hits + replan.cache_stats.hits);
    EXPECT_EQ(miss.value() - miss_before,
              run.cache_stats.misses + replan.cache_stats.misses);
  }
  obs::set_enabled(was_enabled);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST_F(PlanDriverTest, RejectsBadWindows) {
  GreedyPolicy policy;
  PlanDriverOptions options;
  options.start_day = 10;  // == days
  EXPECT_THROW(PlanDriver(*reader_, prices_, {&policy}, options),
               std::invalid_argument);
  options.start_day = 0;
  options.end_day = 11;
  EXPECT_THROW(PlanDriver(*reader_, prices_, {&policy}, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace minicost::core
