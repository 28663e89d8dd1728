#include "core/minicost_system.hpp"

#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/greedy.hpp"
#include "core/rl_policy.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {

MiniCostSystem::MiniCostSystem(MiniCostConfig config)
    : config_(std::move(config)), agent_(config_.agent, config_.seed) {}

void MiniCostSystem::train(const trace::RequestTrace& trace,
                           const rl::TrainOptions& options) {
  rl::TrainOptions opts = options;
  if (opts.episodes == 0) opts.episodes = config_.train_episodes;
  agent_.train(trace, config_.pricing, opts);
}

EvaluationReport MiniCostSystem::evaluate(const trace::RequestTrace& trace,
                                          std::size_t start_day,
                                          std::size_t end_day,
                                          bool include_aggregated) {
  if (end_day == 0) end_day = trace.days();
  if (start_day == 0 || start_day >= end_day)
    throw std::invalid_argument("MiniCostSystem::evaluate: bad window");

  PlanOptions options;
  options.start_day = start_day;
  options.end_day = end_day;
  options.initial_tiers =
      static_initial_tiers(trace, config_.pricing, start_day);
  options.pool = config_.pool;

  EvaluationReport report;
  report.start_day = start_day;
  report.end_day = end_day;
  report.files = trace.file_count();

  // The aggregation enhancement rewrites the workload, so derive the
  // aggregated trace up front; its policy run then joins the fan-out.
  const bool with_aggregation =
      config_.aggregation && include_aggregated && !trace.groups().empty();
  std::optional<trace::RequestTrace> aggregated;
  PlanOptions agg_options = options;
  if (with_aggregation) {
    const std::vector<GroupEvaluation> evaluations = evaluate_groups(
        trace, config_.pricing, *config_.aggregation, start_day);
    aggregated = apply_aggregation(trace, evaluations);
    agg_options.initial_tiers =
        static_initial_tiers(*aggregated, config_.pricing, start_day);
  }

  // Independent policy runs execute concurrently on the pool; each run owns
  // its policy instance, and the shared agent's batch path is thread-safe.
  // Index 0 is Optimal — every other policy's action rate is measured
  // against its plan.
  std::vector<std::function<PlanResult()>> runs;
  runs.push_back([&] {
    OptimalPolicy optimal;
    return run_policy(trace, config_.pricing, optimal, options);
  });
  runs.push_back([&] {
    auto hot = make_hot_policy();
    return run_policy(trace, config_.pricing, *hot, options);
  });
  runs.push_back([&] {
    auto cold = make_cold_policy();
    return run_policy(trace, config_.pricing, *cold, options);
  });
  runs.push_back([&] {
    GreedyPolicy greedy;
    return run_policy(trace, config_.pricing, greedy, options);
  });
  runs.push_back([&] {
    RlPolicy minicost(agent_);
    return run_policy(trace, config_.pricing, minicost, options);
  });
  if (with_aggregation) {
    // MiniCost with the enhancement: the same agent on the rewritten
    // workload (groups aggregated on the window's first period).
    runs.push_back([&] {
      RlPolicy minicost(agent_);
      PlanResult result =
          run_policy(*aggregated, config_.pricing, minicost, agg_options);
      result.policy_name = "MiniCost w/E";
      return result;
    });
  }

  std::vector<PlanResult> results(runs.size());
  util::ThreadPool& pool =
      config_.pool ? *config_.pool : util::ThreadPool::shared();
  pool.parallel_for(0, runs.size(),
                    [&](std::size_t i) { results[i] = runs[i](); });

  std::vector<double> rates(results.size(), 1.0);
  for (std::size_t i = 1; i < results.size(); ++i) {
    // The aggregated plan differs in width; its rate is not comparable.
    rates[i] = results[i].policy_name == "MiniCost w/E"
                   ? 0.0
                   : action_agreement(results[i].plan, results[0].plan);
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    PolicyOutcome outcome;
    outcome.total_cost = results[i].report.grand_total().total();
    outcome.optimal_action_rate = rates[i];
    outcome.result = std::move(results[i]);
    report.outcomes.emplace(outcome.result.policy_name, std::move(outcome));
  }
  return report;
}

sim::DayPlan MiniCostSystem::plan_day(
    const trace::RequestTrace& trace, std::size_t day,
    const std::vector<pricing::StorageTier>& current) {
  if (current.size() != trace.file_count())
    throw std::invalid_argument("MiniCostSystem::plan_day: width mismatch");
  // The deployed decide path: RlPolicy's deduplicated batch forward.
  RlPolicy policy(agent_);
  const PlanContext context{trace, config_.pricing, day, day + 1, current,
                            config_.pool};
  sim::DayPlan plan(trace.file_count());
  policy.decide_day(context, day, current, plan);
  return plan;
}

}  // namespace minicost::core
