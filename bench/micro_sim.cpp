// Microbenchmarks for the cost simulator: per-file-day cost evaluation, a
// one-day billing pass, a full-horizon bill at 1 and all hardware threads,
// and the per-file optimal DP.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>

#include "core/optimal.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace minicost;

const trace::RequestTrace& bench_trace() {
  static const trace::RequestTrace tr = [] {
    trace::SyntheticConfig config;
    config.file_count = 2000;
    config.seed = 42;
    return trace::generate_synthetic(config);
  }();
  return tr;
}

void BM_Sim_FileDayCost(benchmark::State& state) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  double reads = 3.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::file_day_cost(azure, pricing::StorageTier::kCool,
                           pricing::StorageTier::kHot, reads, 0.12, 0.1));
    reads += 1e-9;  // defeat constant folding
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sim_FileDayCost);

void BM_Sim_DailyBillingPass(benchmark::State& state) {
  const trace::RequestTrace& tr = bench_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const sim::DayPlan plan(tr.file_count(), pricing::StorageTier::kHot);
  for (auto _ : state) {
    sim::StorageSimulator simulator(tr, azure);
    simulator.advance(plan);
    benchmark::DoNotOptimize(simulator.report().grand_total().total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tr.file_count()));
}
BENCHMARK(BM_Sim_DailyBillingPass)->Unit(benchmark::kMillisecond);

// The plan-baselines billing shape: 30k files x 35 days, every file
// changing tier every one to four days, billed through StorageSimulator::run
// at pool 1 and at hardware_threads (the Arg). ns_per_file_day is wall time.
void BM_Sim_FullHorizonBilling(benchmark::State& state) {
  static const trace::RequestTrace tr = [] {
    trace::SyntheticConfig config;
    config.file_count = 30'000;
    config.days = 35;
    config.seed = 42;
    return trace::generate_synthetic(config);
  }();
  static const sim::HorizonPlan plan = [] {
    sim::HorizonPlan out(tr.days(), sim::DayPlan(tr.file_count()));
    for (std::size_t t = 0; t < tr.days(); ++t)
      for (std::size_t i = 0; i < tr.file_count(); ++i)
        out[t][i] = pricing::tier_from_index((i + t / (1 + i % 4)) %
                                             pricing::kTierCount);
    return out;
  }();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  sim::SimulatorOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate(tr, azure, plan, options).grand_total().total());
  }
  const auto file_days = static_cast<double>(tr.file_count() * tr.days());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(file_days));
  state.counters["ns_per_file_day"] = benchmark::Counter(
      file_days * 1e-9, benchmark::Counter::kIsIterationInvariantRate |
                            benchmark::Counter::kInvert);
}
BENCHMARK(BM_Sim_FullHorizonBilling)
    ->Arg(1)
    ->Arg(static_cast<std::int64_t>(
        std::max(1u, std::thread::hardware_concurrency())))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Sim_PerFileOptimalDp(benchmark::State& state) {
  const trace::RequestTrace& tr = bench_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto id = static_cast<trace::FileId>(i % tr.file_count());
    benchmark::DoNotOptimize(core::optimal_sequence(
        azure, tr.file(id), 0, tr.days(), pricing::StorageTier::kHot));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sim_PerFileOptimalDp);

}  // namespace
