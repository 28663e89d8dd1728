// Training throughput: the scalar per-step A3C update path vs the batched
// episode update (one forward_batch/backward_batch per network over the
// episode, fused loss-gradient rows, in-place SIMD optimizer step). Two
// numbers per path: episodes/second end to end, and nanoseconds per env
// step spent in the update phase alone (the rl.a3c.grad + rl.a3c.opt_step
// obs timers) — the phase the batching refactor is accountable for.
//
// Output is machine-readable JSON on stdout (one object), e.g.
//   {"bench":"micro_train","episodes":1500, ...,
//    "scalar_episodes_per_sec":...,"batched_episodes_per_sec":...,
//    "scalar_update_step_ns":...,"batched_update_step_ns":...,
//    "update_speedup":...}
//
// A second section measures multi-worker training scaling: end-to-end
// episodes/second at 1/2/4/8/16 workers through the parameter server
// (ParamServer, DESIGN.md §14), plus the derived scaling_4w speedup and
// parallel_efficiency_4w = scaling_4w / 4 that the CI perf gate reads.
//
// MINICOST_SCALE overrides the trace file count (default 2000);
// MINICOST_SEED the trace/agent seed;
// MINICOST_TRAIN_SCALING_EPISODES the episodes per scaling point (default
// 1500).

#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "pricing/policy.hpp"
#include "rl/a3c.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace minicost;

double timer_total_ns(std::string_view name) {
  for (const auto& t : obs::Registry::global().timers())
    if (t.name == name) return static_cast<double>(t.stats.total_ns);
  return 0.0;
}

struct Measurement {
  double seconds = 0.0;    ///< wall time for the whole train() call
  double update_ns = 0.0;  ///< total ns in rl.a3c.grad + rl.a3c.opt_step
  std::size_t env_steps = 0;
};

// Trains a fresh fixed-seed agent for `episodes` down one update path.
// Single worker: the paths are byte-identical there, so both measurements
// do exactly the same arithmetic work per episode.
Measurement measure(bool batched, const trace::RequestTrace& trace,
                    std::size_t episodes) {
  rl::A3CConfig config;
  config.workers = 1;
  config.batched_update = batched;
  rl::A3CAgent agent(config, util::bench_seed());

  obs::Registry::global().reset();
  rl::TrainOptions options;
  options.episodes = episodes;
  options.report_every = episodes;

  Measurement m;
  util::Stopwatch watch;
  agent.train(trace, pricing::PricingPolicy::azure_2020(), options);
  m.seconds = watch.seconds();
  m.update_ns =
      timer_total_ns("rl.a3c.grad") + timer_total_ns("rl.a3c.opt_step");
  m.env_steps = agent.trained_steps();
  return m;
}

// End-to-end episodes/second of a fresh fixed-seed agent trained with
// `workers` threads (no init racing, so the measured phase is pure
// training).
double scaling_eps_per_sec(std::size_t workers,
                           const trace::RequestTrace& trace,
                           std::size_t episodes) {
  rl::A3CConfig config;
  config.workers = workers;
  config.init_candidates = 1;
  rl::A3CAgent agent(config, util::bench_seed());

  rl::TrainOptions options;
  options.episodes = episodes;
  options.report_every = episodes;
  util::Stopwatch watch;
  agent.train(trace, pricing::PricingPolicy::azure_2020(), options);
  return static_cast<double>(episodes) / watch.seconds();
}

}  // namespace

int main() {
  const auto files = static_cast<std::size_t>(util::bench_scale(2000));
  const std::size_t episodes = 1500;

  trace::SyntheticConfig trace_config;
  trace_config.file_count = files;
  trace_config.days = 62;
  trace_config.seed = util::bench_seed();
  const trace::RequestTrace trace = trace::generate_synthetic(trace_config);

  // The update-phase split comes from the obs phase timers.
  obs::set_enabled(true);
  const Measurement scalar = measure(/*batched=*/false, trace, episodes);
  const Measurement batched = measure(/*batched=*/true, trace, episodes);

  const double eps = static_cast<double>(episodes);
  const double scalar_eps_sec = eps / scalar.seconds;
  const double batched_eps_sec = eps / batched.seconds;
  const double scalar_step_ns =
      scalar.update_ns / static_cast<double>(scalar.env_steps);
  const double batched_step_ns =
      batched.update_ns / static_cast<double>(batched.env_steps);

  // Worker-scaling sweep: the same workload trained end to end at each
  // worker count. Counts beyond the hardware thread count still run (the
  // wavefront schedule tolerates oversubscription) but carry no gate.
  const auto scaling_episodes = static_cast<std::size_t>(
      util::env_int("MINICOST_TRAIN_SCALING_EPISODES", 1500));
  const std::size_t hardware_threads = std::thread::hardware_concurrency();
  const std::vector<std::size_t> worker_counts{1, 2, 4, 8, 16};
  std::vector<double> worker_eps;
  for (std::size_t workers : worker_counts)
    worker_eps.push_back(
        scaling_eps_per_sec(workers, trace, scaling_episodes));
  const double scaling_4w = worker_eps[2] / worker_eps[0];
  const double efficiency_4w = scaling_4w / 4.0;

  std::printf(
      "{\"bench\":\"micro_train\",\"files\":%zu,\"episodes\":%zu,"
      "\"scalar_episodes_per_sec\":%.1f,\"batched_episodes_per_sec\":%.1f,"
      "\"episodes_speedup\":%.2f,\"scalar_update_step_ns\":%.1f,"
      "\"batched_update_step_ns\":%.1f,\"update_speedup\":%.2f,"
      "\"hardware_threads\":%zu",
      files, episodes, scalar_eps_sec, batched_eps_sec,
      batched_eps_sec / scalar_eps_sec, scalar_step_ns, batched_step_ns,
      scalar_step_ns / batched_step_ns, hardware_threads);
  for (std::size_t i = 0; i < worker_counts.size(); ++i)
    std::printf(",\"train_eps_per_sec_w%zu\":%.1f", worker_counts[i],
                worker_eps[i]);
  std::printf(",\"scaling_4w\":%.2f,\"parallel_efficiency_4w\":%.2f}\n",
              scaling_4w, efficiency_4w);

  // Run report for the CI perf gate: *_per_sec / *speedup gate as
  // higher-is-better; the per-step *_ns pairs sit under bench_diff's
  // --min-seconds floor on CI, so the speedup ratios carry the gate.
  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("episodes", eps);
  metrics.emplace_back("scalar_episodes_per_sec", scalar_eps_sec);
  metrics.emplace_back("batched_episodes_per_sec", batched_eps_sec);
  metrics.emplace_back("episodes_speedup", batched_eps_sec / scalar_eps_sec);
  metrics.emplace_back("scalar_update_step_ns", scalar_step_ns);
  metrics.emplace_back("batched_update_step_ns", batched_step_ns);
  metrics.emplace_back("update_speedup", scalar_step_ns / batched_step_ns);
  for (std::size_t i = 0; i < worker_counts.size(); ++i)
    metrics.emplace_back(
        "train_eps_per_sec_w" + std::to_string(worker_counts[i]),
        worker_eps[i]);
  metrics.emplace_back("scaling_4w", scaling_4w);
  metrics.emplace_back("parallel_efficiency_4w", efficiency_4w);
  metrics.emplace_back("hardware_threads",
                       static_cast<double>(hardware_threads));
  benchx::write_run_report("micro_train", metrics);
  return 0;
}
