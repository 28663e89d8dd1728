// The billing kernel against the independent Eq. 5-9 oracle
// (bill_oracle.hpp): seeded synthetic traces with zero-traffic files, the
// three price presets, random per-file-day plans, charge_initial_placement
// on and off, billed from day 0 and from mid-trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "bill_oracle.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace minicost::oracle {
namespace {

using pricing::PricingPolicy;
using pricing::StorageTier;

// Every kernel value is a double computed with a few roundings (relative
// error ~1e-16 per term) and summed over non-negative terms, so it sits
// within ~1e-15 of the exact bill; 1e-12 leaves room for the oracle's own
// long double rounding and still fails on any wrong price, term or day.
constexpr long double kRelTol = 1e-12L;

void expect_close(double kernel, long double oracle, const std::string& what) {
  EXPECT_LE(std::fabs(static_cast<long double>(kernel) - oracle),
            kRelTol * std::fabs(oracle))
      << what << ": kernel " << kernel << " oracle " << static_cast<double>(oracle);
}

trace::RequestTrace make_trace(std::uint64_t seed) {
  trace::SyntheticConfig config;
  config.file_count = 1100;  // crosses one billing-chunk edge
  config.days = 24;
  config.seed = seed;
  trace::RequestTrace tr = trace::generate_synthetic(config);
  // Zero-traffic files: no reads or writes on any day; one also has zero size.
  for (std::size_t i = 0; i < tr.file_count(); i += 97) {
    trace::FileRecord& f = tr.mutable_files()[i];
    std::fill(f.reads.begin(), f.reads.end(), 0.0);
    std::fill(f.writes.begin(), f.writes.end(), 0.0);
  }
  tr.mutable_files()[194].size_gb = 0.0;
  return tr;
}

sim::HorizonPlan random_plan(std::size_t days, std::size_t files,
                             util::Rng& rng) {
  sim::HorizonPlan plan(days, sim::DayPlan(files));
  for (sim::DayPlan& day : plan)
    for (StorageTier& tier : day)
      tier = pricing::tier_from_index(static_cast<std::size_t>(rng.uniform_int(0, 2)));
  return plan;
}

void expect_matches_oracle(const sim::BillingReport& report,
                           const OracleBill& oracle, const std::string& label) {
  ASSERT_EQ(report.days(), oracle.per_day.size()) << label;
  long double grand = 0.0L;
  for (std::size_t d = 0; d < report.days(); ++d) {
    const sim::CostBreakdown& day = report.day(d);
    const std::string at = label + " day " + std::to_string(d);
    expect_close(day.storage, oracle.per_day[d][0], at + " storage");
    expect_close(day.read, oracle.per_day[d][1], at + " read");
    expect_close(day.write, oracle.per_day[d][2], at + " write");
    expect_close(day.change, oracle.per_day[d][3], at + " change");
    EXPECT_EQ(report.tier_changes_on(d), oracle.changes_per_day[d]) << at;
    for (const long double c : oracle.per_day[d]) grand += c;
  }
  expect_close(report.grand_total().total(), grand, label + " grand total");
  for (std::size_t i = 0; i < report.file_count(); ++i)
    expect_close(report.file_total(static_cast<trace::FileId>(i)),
                 oracle.per_file[i], label + " file " + std::to_string(i));
}

TEST(BillOracleTest, KernelMatchesEq5To9AcrossPresetsPlansAndWindows) {
  util::ThreadPool pool(4);
  const PricingPolicy presets[] = {PricingPolicy::azure_2020(),
                                   PricingPolicy::s3_like(),
                                   PricingPolicy::gcs_like()};
  for (const std::uint64_t seed : {3u, 17u}) {
    const trace::RequestTrace tr = make_trace(seed);
    util::Rng rng(seed * 7919 + 1);
    std::vector<StorageTier> initial(tr.file_count());
    for (StorageTier& tier : initial)
      tier = pricing::tier_from_index(static_cast<std::size_t>(rng.uniform_int(0, 2)));
    for (const PricingPolicy& prices : presets) {
      for (const bool charge_initial : {false, true}) {
        sim::SimulatorOptions options;
        options.initial_tiers = initial;
        options.charge_initial_placement = charge_initial;
        options.pool = &pool;
        const std::string label = prices.name() + " seed " +
                                  std::to_string(seed) + " charge_initial " +
                                  std::to_string(charge_initial);

        // Day 0 through StorageSimulator::run over the whole horizon.
        const sim::HorizonPlan full = random_plan(tr.days(), tr.file_count(), rng);
        expect_matches_oracle(sim::simulate(tr, prices, full, options),
                              oracle_bill(tr, prices, full, 0, initial,
                                          charge_initial),
                              label + " from day 0");

        // Mid-trace, billed in place.
        constexpr std::size_t kFirst = 9, kDays = 11;
        const sim::HorizonPlan mid = random_plan(kDays, tr.file_count(), rng);
        expect_matches_oracle(
            sim::simulate_window(tr, prices, mid, kFirst, options),
            oracle_bill(tr, prices, mid, kFirst, initial, charge_initial),
            label + " from day 9");
      }
    }
  }
}

}  // namespace
}  // namespace minicost::oracle
