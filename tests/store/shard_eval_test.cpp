// The DESIGN.md §9 determinism guarantee, tested literally: for per-file
// policies, the shard-streamed PlanDriver bill over a .mct store is
// byte-identical to the monolithic in-memory bill for EVERY shard size and
// pool size.

#include "core/plan_driver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>

#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_identical(const sim::BillingReport& sharded,
                      const sim::BillingReport& mono) {
  ASSERT_EQ(sharded.days(), mono.days());
  ASSERT_EQ(sharded.file_count(), mono.file_count());
  const sim::CostBreakdown& a = sharded.grand_total();
  const sim::CostBreakdown& b = mono.grand_total();
  EXPECT_EQ(bits(a.storage), bits(b.storage));
  EXPECT_EQ(bits(a.read), bits(b.read));
  EXPECT_EQ(bits(a.write), bits(b.write));
  EXPECT_EQ(bits(a.change), bits(b.change));
  for (std::size_t d = 0; d < mono.days(); ++d) {
    EXPECT_EQ(bits(sharded.day(d).storage), bits(mono.day(d).storage));
    EXPECT_EQ(bits(sharded.day(d).read), bits(mono.day(d).read));
    EXPECT_EQ(bits(sharded.day(d).write), bits(mono.day(d).write));
    EXPECT_EQ(bits(sharded.day(d).change), bits(mono.day(d).change));
    EXPECT_EQ(sharded.tier_changes_on(d), mono.tier_changes_on(d));
  }
  for (std::size_t f = 0; f < mono.file_count(); ++f)
    EXPECT_EQ(bits(sharded.file_total(f)), bits(mono.file_total(f)));
  EXPECT_EQ(sharded.tier_changes(), mono.tier_changes());
}

class ShardEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("minicost_shard_eval_" + std::to_string(::getpid()) + ".mct");
    trace::SyntheticConfig config;
    config.file_count = 61;  // deliberately not a multiple of any shard size
    config.days = 10;
    config.seed = 11;
    store::pack_trace(trace::generate_synthetic(config), path_);
    reader_ = std::make_unique<store::TraceReader>(path_);
  }
  void TearDown() override {
    reader_.reset();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  /// Runs the matrix {shard sizes} x {pool sizes} for one policy and checks
  /// every cell against the monolithic reference bill. shard size 1000 >
  /// file count pins the "one oversized shard" edge.
  template <typename Policy>
  void check_policy(std::size_t start_day, bool static_initial = true) {
    const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
    const trace::RequestTrace whole = reader_->materialize();

    Policy reference_policy;
    PlanOptions mono;
    mono.start_day = start_day;
    if (static_initial && start_day > 0)
      mono.initial_tiers = static_initial_tiers(whole, prices, start_day);
    const PlanResult reference =
        run_policy(whole, prices, reference_policy, mono);

    for (const std::size_t shard_files :
         {std::size_t{1}, std::size_t{7}, std::size_t{1000}, std::size_t{0}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        util::ThreadPool pool(threads);
        Policy policy;
        PlanDriverOptions options;
        options.shard_files = shard_files;
        options.start_day = start_day;
        options.static_initial = static_initial;
        options.pool = &pool;
        const PlanDriverRun sharded =
            PlanDriver(*reader_, prices, {&policy}, options).run().front();
        SCOPED_TRACE("shard_files=" + std::to_string(shard_files) +
                     " threads=" + std::to_string(threads));
        const std::size_t n = reader_->file_count();
        EXPECT_EQ(sharded.shard_count,
                  shard_files == 0 || shard_files >= n
                      ? 1u
                      : (n + shard_files - 1) / shard_files);
        expect_identical(sharded.report, reference.report);
      }
    }
  }

  std::filesystem::path path_;
  std::unique_ptr<store::TraceReader> reader_;
};

TEST_F(ShardEvalTest, GreedyMatchesMonolithicForEveryShardAndPoolSize) {
  check_policy<GreedyPolicy>(3);
}

TEST_F(ShardEvalTest, OptimalMatchesMonolithicForEveryShardAndPoolSize) {
  check_policy<OptimalPolicy>(3);
}

TEST_F(ShardEvalTest, WholeWindowFromDayZeroMatches) {
  check_policy<GreedyPolicy>(0);
}

TEST_F(ShardEvalTest, ObservationWindowWithoutStaticInitialMatches) {
  check_policy<GreedyPolicy>(/*start_day=*/3, /*static_initial=*/false);
}

TEST_F(ShardEvalTest, EmptyStoreBillsToEmptyReport) {
  const std::filesystem::path empty =
      std::filesystem::temp_directory_path() /
      ("minicost_shard_eval_empty_" + std::to_string(::getpid()) + ".mct");
  {
    store::TraceWriter writer(empty, /*days=*/10);
    writer.finish();  // zero files
  }
  const store::TraceReader reader(empty);
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();

  GreedyPolicy mono_policy;
  PlanOptions mono;
  mono.start_day = 3;
  const PlanResult reference =
      run_policy(reader.materialize(), prices, mono_policy, mono);

  GreedyPolicy policy;
  PlanDriverOptions options;
  options.shard_files = 7;
  options.start_day = 3;
  const PlanDriverRun sharded =
      PlanDriver(reader, prices, {&policy}, options).run().front();
  EXPECT_EQ(sharded.shard_count, 0u);
  EXPECT_EQ(sharded.replanned_shards, 0u);
  expect_identical(sharded.report, reference.report);
  EXPECT_EQ(sharded.report.grand_total().total(), 0.0);
  std::error_code ec;
  std::filesystem::remove(empty, ec);
}

TEST_F(ShardEvalTest, RejectsBadWindows) {
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
  GreedyPolicy policy;
  PlanDriverOptions options;
  options.start_day = 10;  // == days
  EXPECT_THROW(PlanDriver(*reader_, prices, {&policy}, options),
               std::invalid_argument);
  options.start_day = 0;
  options.end_day = 11;
  EXPECT_THROW(PlanDriver(*reader_, prices, {&policy}, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace minicost::core
