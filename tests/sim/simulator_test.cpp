#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>

#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace minicost::sim {
namespace {

using pricing::PricingPolicy;
using pricing::StorageTier;

trace::RequestTrace make_trace() {
  std::vector<trace::FileRecord> files;
  files.push_back({"a", 0.1, {10.0, 20.0, 5.0}, {0.1, 0.1, 0.1}});
  files.push_back({"b", 0.2, {0.1, 0.1, 0.1}, {0.0, 0.0, 0.0}});
  return trace::RequestTrace(3, std::move(files));
}

HorizonPlan constant_plan(std::size_t days, std::size_t files, StorageTier tier) {
  return HorizonPlan(days, DayPlan(files, tier));
}

StorageTier random_tier(util::Rng& rng) {
  return pricing::tier_from_index(static_cast<std::size_t>(rng.uniform_int(0, 2)));
}

HorizonPlan random_plan(std::size_t days, std::size_t files, util::Rng& rng) {
  HorizonPlan plan(days, DayPlan(files));
  for (DayPlan& day : plan)
    for (StorageTier& tier : day) tier = random_tier(rng);
  return plan;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Byte-for-byte equality of two bills: every per-day component, every
/// per-file total and every per-day change count.
void expect_same_bill(const BillingReport& a, const BillingReport& b,
                      const std::string& label) {
  ASSERT_EQ(a.days(), b.days()) << label;
  ASSERT_EQ(a.file_count(), b.file_count()) << label;
  for (std::size_t d = 0; d < a.days(); ++d) {
    EXPECT_EQ(bits(a.day(d).storage), bits(b.day(d).storage)) << label << " day " << d;
    EXPECT_EQ(bits(a.day(d).read), bits(b.day(d).read)) << label << " day " << d;
    EXPECT_EQ(bits(a.day(d).write), bits(b.day(d).write)) << label << " day " << d;
    EXPECT_EQ(bits(a.day(d).change), bits(b.day(d).change)) << label << " day " << d;
    EXPECT_EQ(a.tier_changes_on(d), b.tier_changes_on(d)) << label << " day " << d;
  }
  EXPECT_EQ(a.tier_changes(), b.tier_changes()) << label;
  for (std::size_t f = 0; f < a.file_count(); ++f)
    ASSERT_EQ(bits(a.per_file_totals()[f]), bits(b.per_file_totals()[f]))
        << label << " file " << f;
}

TEST(SimulatorTest, BillsConstantPlanPerCostModel) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const BillingReport report = simulate(
      trace, azure, constant_plan(3, 2, StorageTier::kHot));

  double expected = 0.0;
  for (const auto& f : trace.files()) {
    for (std::size_t t = 0; t < 3; ++t) {
      expected += file_day_cost_no_change(azure, StorageTier::kHot, f.reads[t],
                                          f.writes[t], f.size_gb)
                      .total();
    }
  }
  EXPECT_NEAR(report.grand_total().total(), expected, 1e-12);
  EXPECT_EQ(report.tier_changes(), 0u);
}

TEST(SimulatorTest, InitialPlacementFreeByDefault) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  // Plan puts everything in cool although the simulator starts in hot; the
  // day-0 move must not charge Cc by default.
  const BillingReport report =
      simulate(trace, azure, constant_plan(3, 2, StorageTier::kCool));
  EXPECT_DOUBLE_EQ(report.grand_total().change, 0.0);
  EXPECT_EQ(report.tier_changes(), 2u);  // still counted as movements
}

TEST(SimulatorTest, InitialPlacementChargedWhenConfigured) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  SimulatorOptions options;
  options.charge_initial_placement = true;
  const BillingReport report =
      simulate(trace, azure, constant_plan(3, 2, StorageTier::kCool), options);
  const double expected_change =
      azure.change_cost(StorageTier::kHot, StorageTier::kCool, 0.1) +
      azure.change_cost(StorageTier::kHot, StorageTier::kCool, 0.2);
  EXPECT_NEAR(report.grand_total().change, expected_change, 1e-15);
}

TEST(SimulatorTest, MidHorizonChangesAreCharged) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  HorizonPlan plan = constant_plan(3, 2, StorageTier::kHot);
  plan[1][0] = StorageTier::kCool;  // file 0 moves on day 1...
  plan[2][0] = StorageTier::kHot;   // ...and back on day 2.
  const BillingReport report = simulate(trace, azure, plan);
  EXPECT_NEAR(report.grand_total().change,
              2.0 * azure.change_cost(StorageTier::kHot, StorageTier::kCool, 0.1),
              1e-15);
  EXPECT_EQ(report.tier_changes(), 2u);
}

TEST(SimulatorTest, PerFileInitialTiersRespected) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  SimulatorOptions options;
  options.initial_tiers = {StorageTier::kCool, StorageTier::kArchive};
  options.charge_initial_placement = true;
  // Plan keeps each file in its initial tier: no changes at all.
  HorizonPlan plan(3, DayPlan{StorageTier::kCool, StorageTier::kArchive});
  const BillingReport report = simulate(trace, azure, plan, options);
  EXPECT_DOUBLE_EQ(report.grand_total().change, 0.0);
  EXPECT_EQ(report.tier_changes(), 0u);
}

TEST(SimulatorTest, InitialTiersWidthMismatchThrows) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  SimulatorOptions options;
  options.initial_tiers = {StorageTier::kHot};  // trace has 2 files
  EXPECT_THROW(StorageSimulator(trace, azure, options), std::invalid_argument);
}

TEST(SimulatorTest, AdvanceValidatesPlanWidthAndHorizon) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  StorageSimulator sim(trace, azure);
  EXPECT_THROW(sim.advance(DayPlan(1, StorageTier::kHot)), std::invalid_argument);
  for (int d = 0; d < 3; ++d) sim.advance(DayPlan(2, StorageTier::kHot));
  EXPECT_THROW(sim.advance(DayPlan(2, StorageTier::kHot)), std::out_of_range);
}

TEST(SimulatorTest, ResetRestoresInitialState) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  StorageSimulator sim(trace, azure);
  sim.advance(DayPlan(2, StorageTier::kCool));
  sim.reset();
  EXPECT_EQ(sim.current_day(), 0u);
  EXPECT_EQ(sim.current_tiers()[0], StorageTier::kHot);
  EXPECT_DOUBLE_EQ(sim.report().grand_total().total(), 0.0);
}

TEST(SimulatorTest, FileSequenceCostMatchesSimulator) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> seq{StorageTier::kHot, StorageTier::kCool,
                                     StorageTier::kCool};
  // Bill only file 0 through the simulator by keeping file 1 constant and
  // subtracting its standalone cost.
  HorizonPlan plan(3, DayPlan{StorageTier::kHot, StorageTier::kHot});
  for (std::size_t t = 0; t < 3; ++t) plan[t][0] = seq[t];
  const BillingReport report = simulate(trace, azure, plan);
  const double file1_cost = [&] {
    double total = 0.0;
    const auto& f = trace.file(1);
    for (std::size_t t = 0; t < 3; ++t)
      total += file_day_cost_no_change(azure, StorageTier::kHot, f.reads[t],
                                       f.writes[t], f.size_gb)
                   .total();
    return total;
  }();
  const double via_sequence = file_sequence_cost(azure, trace.file(0), seq,
                                                 StorageTier::kHot);
  EXPECT_NEAR(report.grand_total().total() - file1_cost, via_sequence, 1e-12);
}

TEST(SimulatorTest, ChargeInitialInSequenceCost) {
  const PricingPolicy azure = PricingPolicy::azure_2020();
  trace::FileRecord f{"x", 0.1, {1.0}, {0.0}};
  const std::vector<StorageTier> seq{StorageTier::kCool};
  const double without = file_sequence_cost(azure, f, seq, StorageTier::kHot,
                                            /*charge_initial=*/false);
  const double with = file_sequence_cost(azure, f, seq, StorageTier::kHot,
                                         /*charge_initial=*/true);
  EXPECT_NEAR(with - without,
              azure.change_cost(StorageTier::kHot, StorageTier::kCool, 0.1),
              1e-15);
}

TEST(SimulatorTest, ParallelBillingIsByteIdenticalToSerial) {
  // Two kBillingChunkFiles chunks, so the pool bills them in parallel; the
  // bill must match the one-thread bill bit for bit.
  trace::SyntheticConfig config;
  config.file_count = 2048;
  config.days = 8;
  config.seed = 99;
  const trace::RequestTrace trace = trace::generate_synthetic(config);
  const PricingPolicy azure = PricingPolicy::azure_2020();

  // Alternate tiers day to day so change costs and counters exercise too.
  HorizonPlan plan;
  for (std::size_t d = 0; d < trace.days(); ++d) {
    plan.push_back(DayPlan(trace.file_count(), d % 2 == 0
                                                   ? StorageTier::kHot
                                                   : StorageTier::kCool));
  }

  util::ThreadPool one(1), many(4);
  SimulatorOptions serial_options;
  serial_options.pool = &one;
  SimulatorOptions parallel_options;
  parallel_options.pool = &many;
  const BillingReport serial = simulate(trace, azure, plan, serial_options);
  const BillingReport parallel = simulate(trace, azure, plan, parallel_options);

  EXPECT_EQ(serial.grand_total().total(), parallel.grand_total().total());
  EXPECT_EQ(serial.tier_changes(), parallel.tier_changes());
  EXPECT_EQ(serial.per_file_totals(), parallel.per_file_totals());
  for (std::size_t d = 0; d < trace.days(); ++d) {
    EXPECT_EQ(serial.day(d).total(), parallel.day(d).total()) << "day " << d;
    EXPECT_EQ(serial.tier_changes_on(d), parallel.tier_changes_on(d));
  }
}

TEST(SimulatorTest, ChunkEdgesRunEqualsAdvanceLoopAndRangeMerge) {
  // Widths around the billing chunk; every way of billing the same plan —
  // one run(), a day-by-day advance() loop, per-range reports folded with
  // merge_shard — must give the same bytes at every pool size.
  const PricingPolicy azure = PricingPolicy::azure_2020();
  constexpr std::size_t C = kBillingChunkFiles;
  constexpr std::size_t kDays = 6;
  util::ThreadPool one(1), four(4);
  for (const std::size_t width : {std::size_t{1}, C - 1, C, C + 1, 2 * C + 3}) {
    trace::SyntheticConfig config;
    config.file_count = width;
    config.days = kDays;
    config.seed = 500 + width;
    const trace::RequestTrace trace = trace::generate_synthetic(config);
    util::Rng rng(width);
    const HorizonPlan plan = random_plan(kDays, width, rng);
    std::vector<StorageTier> initial(width);
    for (StorageTier& tier : initial) tier = random_tier(rng);

    SimulatorOptions reference_options;
    reference_options.initial_tiers = initial;
    reference_options.pool = &one;
    const BillingReport reference = simulate(trace, azure, plan, reference_options);

    for (util::ThreadPool* pool : {&one, &four}) {
      const std::string label = "width " + std::to_string(width) + " pool " +
                                std::to_string(pool->size());
      SimulatorOptions options = reference_options;
      options.pool = pool;
      expect_same_bill(simulate(trace, azure, plan, options), reference,
                       label + " run");

      StorageSimulator stepped(trace, azure, options);
      for (const DayPlan& day : plan) stepped.advance(day);
      expect_same_bill(stepped.report(), reference, label + " advance");

      // Ranges of 1, 7 and C + 1 files in turn: none aligned with a chunk.
      BillingReport merged(width, kDays);
      const std::size_t range_widths[] = {1, 7, C + 1};
      for (std::size_t first = 0, r = 0; first < width; ++r) {
        const std::size_t count = std::min(range_widths[r % 3], width - first);
        std::vector<trace::FileId> ids(count);
        std::iota(ids.begin(), ids.end(), static_cast<trace::FileId>(first));
        HorizonPlan part_plan(kDays);
        for (std::size_t t = 0; t < kDays; ++t)
          part_plan[t].assign(plan[t].begin() + static_cast<std::ptrdiff_t>(first),
                              plan[t].begin() + static_cast<std::ptrdiff_t>(first + count));
        SimulatorOptions part_options = options;
        part_options.initial_tiers.assign(
            initial.begin() + static_cast<std::ptrdiff_t>(first),
            initial.begin() + static_cast<std::ptrdiff_t>(first + count));
        merged.merge_shard(simulate(trace.select_files(ids), azure, part_plan,
                                    part_options),
                           first);
        first += count;
      }
      expect_same_bill(merged, reference, label + " range merge");
    }
  }
}

TEST(SimulatorTest, SimulateWindowEqualsBillingAWindowCopy) {
  trace::SyntheticConfig config;
  config.file_count = kBillingChunkFiles + 5;
  config.days = 20;
  config.seed = 7;
  const trace::RequestTrace trace = trace::generate_synthetic(config);
  const PricingPolicy azure = PricingPolicy::azure_2020();
  util::Rng rng(11);
  constexpr std::size_t kFirst = 8, kDays = 9;
  const HorizonPlan plan = random_plan(kDays, trace.file_count(), rng);
  util::ThreadPool one(1), four(4);
  for (util::ThreadPool* pool : {&one, &four}) {
    for (const bool charge_initial : {false, true}) {
      SimulatorOptions options;
      options.initial_tier = StorageTier::kCool;
      options.charge_initial_placement = charge_initial;
      options.pool = pool;
      expect_same_bill(simulate_window(trace, azure, plan, kFirst, options),
                       simulate(trace.window(kFirst, kDays), azure, plan, options),
                       "pool " + std::to_string(pool->size()) +
                           " charge_initial " + std::to_string(charge_initial));
    }
  }
}

TEST(SimulatorTest, SimulateWindowValidatesBeforeBilling) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  EXPECT_THROW(simulate_window(trace, azure, constant_plan(2, 2, StorageTier::kHot), 2),
               std::out_of_range);
  HorizonPlan ragged = constant_plan(2, 2, StorageTier::kHot);
  ragged[1].pop_back();
  EXPECT_THROW(simulate_window(trace, azure, ragged, 1), std::invalid_argument);
  // A bad day late in run() throws before any day is billed.
  StorageSimulator sim(trace, azure);
  EXPECT_THROW(sim.run(ragged), std::invalid_argument);
  EXPECT_EQ(sim.current_day(), 0u);
  EXPECT_EQ(sim.report().grand_total().total(), 0.0);
}

}  // namespace
}  // namespace minicost::sim
