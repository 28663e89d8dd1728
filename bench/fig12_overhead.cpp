// Figure 12 — "Overhead": the per-day computing cost of each online policy.
// The paper reports, at 4M-file scale, ~1 minute/day for Hot/Cold and
// 28-36 minutes/day for Greedy and MiniCost, with MiniCost's per-file
// decision under 1 ms. google-benchmark measures one full daily decision
// pass per policy here; the reported counters extrapolate to the paper's
// 4M files.

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "core/greedy.hpp"
#include "core/rl_policy.hpp"

namespace {

using namespace minicost;

struct Fixture {
  Fixture()
      : workload(benchx::standard_workload()),
        prices(benchx::standard_pricing()),
        agent(benchx::shared_agent(workload, /*episodes=*/
                                   20000)),  // overhead needs a trained net,
                                             // not a converged one
        initial(core::static_initial_tiers(workload.test, prices, 27)),
        context{workload.test, prices, 27, workload.test.days(), initial} {}

  benchx::Workload workload;
  pricing::PricingPolicy prices;
  std::unique_ptr<rl::A3CAgent> agent;
  std::vector<pricing::StorageTier> initial;
  core::PlanContext context;
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

void run_daily_pass(benchmark::State& state, core::TieringPolicy& policy) {
  Fixture& f = fixture();
  const std::size_t day = 30;
  policy.prepare(f.context);
  std::size_t files = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < f.workload.test.file_count(); ++i) {
      const auto id = static_cast<trace::FileId>(i);
      benchmark::DoNotOptimize(
          policy.decide(f.context, id, day, f.initial[i]));
    }
    files += f.workload.test.file_count();
  }
  // items_per_second = file decisions per second. Minutes per day at the
  // paper's 4M-file scale = 4e6 / items_per_second / 60 (tabulated in
  // EXPERIMENTS.md from this number).
  state.SetItemsProcessed(static_cast<std::int64_t>(files));
}

void BM_Fig12_Hot(benchmark::State& state) {
  auto policy = core::make_hot_policy();
  run_daily_pass(state, *policy);
}
BENCHMARK(BM_Fig12_Hot)->Unit(benchmark::kMillisecond);

void BM_Fig12_Cold(benchmark::State& state) {
  auto policy = core::make_cold_policy();
  run_daily_pass(state, *policy);
}
BENCHMARK(BM_Fig12_Cold)->Unit(benchmark::kMillisecond);

void BM_Fig12_Greedy(benchmark::State& state) {
  core::GreedyPolicy policy;
  run_daily_pass(state, policy);
}
BENCHMARK(BM_Fig12_Greedy)->Unit(benchmark::kMillisecond);

void BM_Fig12_MiniCost(benchmark::State& state) {
  core::RlPolicy policy(*fixture().agent);
  run_daily_pass(state, policy);
}
BENCHMARK(BM_Fig12_MiniCost)->Unit(benchmark::kMillisecond);

// The deployed batch path: one RlPolicy::decide_day over every file, which
// forwards each distinct decision state of the day once on the shared
// pool. items_per_second is file decisions per wall-clock second (the pool
// threads' CPU is not on the benchmark thread's clock).
void BM_Fig12_MiniCostDay(benchmark::State& state) {
  Fixture& f = fixture();
  core::RlPolicy policy(*f.agent);
  policy.prepare(f.context);
  std::vector<pricing::StorageTier> plan(f.workload.test.file_count());
  std::size_t files = 0;
  for (auto _ : state) {
    policy.decide_day(f.context, 30, f.initial, plan);
    benchmark::DoNotOptimize(plan.data());
    benchmark::ClobberMemory();
    files += plan.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(files));
}
BENCHMARK(BM_Fig12_MiniCostDay)->Unit(benchmark::kMillisecond)->UseRealTime();

// The paper's "<1 ms per data file decision" claim, measured directly.
void BM_Fig12_MiniCostPerFileDecision(benchmark::State& state) {
  Fixture& f = fixture();
  core::RlPolicy policy(*f.agent);
  policy.prepare(f.context);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto id = static_cast<trace::FileId>(i % f.workload.test.file_count());
    benchmark::DoNotOptimize(policy.decide(f.context, id, 30, f.initial[id]));
    ++i;
  }
}
BENCHMARK(BM_Fig12_MiniCostPerFileDecision)->Unit(benchmark::kMicrosecond);

}  // namespace
