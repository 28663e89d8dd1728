// mcbench — the library-side half of perfbench (perfbench/METRICS.md).
//
//   mcbench env
//   mcbench fingerprint --agent agent.ckpt
//   mcbench make-agent  --out agent.ckpt
//   mcbench plan  store.mct --policy rl,optimal [--agent agent.ckpt]
//   mcbench serve store.mct --agent agent.ckpt --shard-files 2048
//                 --requests requests.txt
//   mcbench train store.mct --split-seed 7 [--seconds 10]
//
// `plan` and `serve` are the *traced* counterparts of `minicost plan` and
// `minicost plan --serve`: they drive the same libraries through their
// public calls — TraceReader::materialize_shard, static_initial_tiers,
// TieringPolicy::prepare/decide_day, Featurizer::encode_into,
// A3CAgent::act_features_batch, StorageSimulator::run and
// BillingReport::merge_shard — in the order core::PlanDriver makes them,
// and time each call in wall and process CPU time. The bills they print
// must equal the CLI's byte for byte; perfbench/run.py checks that, which
// is what shows the per-layer ledger measures the same computation.
//
// `train` is the trainer workload: A3CAgent::train on the training split
// of a store, then the held-out window planned through core::run_policy.
// It ends with one traced round whose held-out plan is decomposed like
// `plan`, and reports the trainer's own obs timers.
//
// Every command prints one JSON object on stdout; costs print as %.17g
// strings so equal bills compare as equal text.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/decision_cache.hpp"
#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/planner.hpp"
#include "core/rl_policy.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "pricing/policy.hpp"
#include "rl/a3c.hpp"
#include "sim/simulator.hpp"
#include "store/trace_reader.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace minicost;

/// The `minicost plan` defaults the traced runs must match.
constexpr std::uint64_t kAgentSeed = 1234;  // --agent-seed
constexpr std::size_t kWindowDays = 35;     // --start default: last 35 days
constexpr std::size_t kPlanShardFiles = 65536;  // --shard-files

/// The recipe of the fixed agent plan-minicost and serve-replan deploy.
constexpr std::size_t kMakeAgentFiles = 20000;
constexpr std::uint64_t kMakeAgentSeed = 42;  // trace, split and agent seed
constexpr std::size_t kMakeAgentEpisodes = 40000;

/// The train workload: episodes per round, and rounds run at least (the
/// first one warms up and is not timed).
constexpr std::size_t kTrainEpisodes = 6000;
constexpr std::size_t kTrainMinRounds = 4;

// ---------------------------------------------------------------- timing --

struct Sample {
  double wall = 0.0;
  double cpu = 0.0;
};

Sample now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  const auto wall = std::chrono::steady_clock::now().time_since_epoch();
  return {std::chrono::duration<double>(wall).count(),
          static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec)};
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Wall and process-CPU time per layer call, summed over calls. A span is
/// *top-level* when no other span encloses it; top-level spans partition
/// the traced wall time, so whatever they miss is the unattributed rest.
class Ledger {
 public:
  template <class F>
  auto time(const std::string& name, F&& fn, bool top = true) {
    const Sample start = now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      fn();
      close(name, start, top);
    } else {
      auto out = fn();
      close(name, start, top);
      return out;
    }
  }

  void count(const std::string& name, double amount) { values_[name] += amount; }
  void set(const std::string& name, double value) { values_[name] = value; }

  std::string json() const {
    std::ostringstream out;
    out << "{\"spans\":{";
    bool first = true;
    for (const auto& [name, span] : spans_) {
      out << (first ? "" : ",") << obs::json::quote(name) << ":{\"wall\":"
          << fmt(span.wall) << ",\"cpu\":" << fmt(span.cpu)
          << ",\"top\":" << (span.top ? "true" : "false") << "}";
      first = false;
    }
    out << "},\"values\":{";
    first = true;
    for (const auto& [name, value] : values_) {
      out << (first ? "" : ",") << obs::json::quote(name) << ":" << fmt(value);
      first = false;
    }
    out << "}}";
    return out.str();
  }

 private:
  struct Span {
    double wall = 0.0;
    double cpu = 0.0;
    bool top = true;
  };

  void close(const std::string& name, const Sample& start, bool top) {
    const Sample end = now();
    Span& span = spans_[name];
    span.wall += end.wall - start.wall;
    span.cpu += end.cpu - start.cpu;
    span.top = top;
  }

  std::map<std::string, Span> spans_;
  std::map<std::string, double> values_;
};

// -------------------------------------------------------------- policies --

/// A policy under trace. `agent` is set for the MiniCost policy: its
/// decide step is then split into featurize and forward calls.
struct TracedPolicy {
  std::string key;  ///< metric suffix: minicost | hot | cold | greedy | optimal
  std::unique_ptr<rl::A3CAgent> agent;
  std::unique_ptr<core::TieringPolicy> policy;
};

std::unique_ptr<rl::A3CAgent> load_agent(const std::string& checkpoint) {
  auto agent = std::make_unique<rl::A3CAgent>(rl::A3CConfig{}, kAgentSeed);
  agent->load(checkpoint);
  return agent;
}

TracedPolicy make_traced_policy(const std::string& name,
                                const std::string& checkpoint, Ledger& ledger) {
  TracedPolicy traced;
  if (name == "rl") {
    traced.key = "minicost";
    traced.agent = ledger.time("rl.load", [&] { return load_agent(checkpoint); });
    traced.policy = std::make_unique<core::RlPolicy>(*traced.agent);
  } else if (name == "hot") {
    traced.key = name;
    traced.policy = core::make_hot_policy();
  } else if (name == "cold") {
    traced.key = name;
    traced.policy = core::make_cold_policy();
  } else if (name == "greedy") {
    traced.key = name;
    traced.policy = std::make_unique<core::GreedyPolicy>();
  } else if (name == "optimal") {
    traced.key = name;
    traced.policy = std::make_unique<core::OptimalPolicy>();
  } else {
    throw std::invalid_argument("unknown policy '" + name + "'");
  }
  return traced;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

// -------------------------------------------------------------- planning --

/// Plans one shard exactly as core::run_policy does, one timed call per
/// layer boundary.
class ShardPlanner {
 public:
  ShardPlanner(const pricing::PricingPolicy& prices, std::size_t start_day,
               std::size_t end_day, core::DecisionCache* cache, Ledger& ledger)
      : prices_(prices),
        start_day_(start_day),
        end_day_(end_day),
        cache_(cache),
        ledger_(ledger) {}

  sim::BillingReport plan(const trace::RequestTrace& shard, TracedPolicy& traced) {
    const std::vector<pricing::StorageTier> initial = ledger_.time(
        "core.static_initial",
        [&] { return core::static_initial_tiers(shard, prices_, start_day_); });
    const core::PlanContext context{shard,    prices_, start_day_, end_day_,
                                    initial, nullptr, cache_};
    ledger_.time("core.prepare." + traced.key,
                 [&] { traced.policy->prepare(context); });

    const std::size_t window = end_day_ - start_day_;
    sim::HorizonPlan plan;
    plan.reserve(window);
    std::vector<pricing::StorageTier> current = initial;
    for (std::size_t day = start_day_; day < end_day_; ++day) {
      sim::DayPlan day_plan(shard.file_count());
      ledger_.time("core.decide." + traced.key, [&] {
        if (traced.agent && cache_ == nullptr)
          decide_rl(*traced.agent, shard, day, current, day_plan);
        else
          traced.policy->decide_day(context, day, current, day_plan);
        current = day_plan;
      });
      plan.push_back(std::move(day_plan));
    }

    ledger_.count("sim.file_days",
                  static_cast<double>(window * shard.file_count()));
    return ledger_.time("sim.bill", [&] {
      const trace::RequestTrace window_trace = shard.window(start_day_, window);
      sim::SimulatorOptions options;
      options.initial_tiers = initial;
      options.charge_initial_placement = true;
      sim::StorageSimulator simulator(window_trace, prices_, options);
      return sim::BillingReport(simulator.run(plan));
    });
  }

 private:
  /// RlPolicy::decide_day without the decision cache, split at the rl
  /// layer's two public calls. act_features_batch over encode_into rows is
  /// bit-identical to act_batch (rl/a3c.hpp), so the plan is too.
  void decide_rl(rl::A3CAgent& agent, const trace::RequestTrace& shard,
                 std::size_t day, std::span<const pricing::StorageTier> current,
                 std::span<pricing::StorageTier> out) {
    const rl::Featurizer& featurizer = agent.featurizer();
    if (day < featurizer.history_len()) {
      std::copy(current.begin(), current.end(), out.begin());
      return;
    }
    const std::size_t n = shard.file_count();
    const std::size_t width = featurizer.feature_count();
    rows_.resize(n * width);
    util::ThreadPool& pool = util::ThreadPool::shared();
    constexpr std::size_t kChunk = 1024;
    const std::size_t chunks = (n + kChunk - 1) / kChunk;
    const std::span<double> rows(rows_);
    ledger_.time(
        "rl.featurize",
        [&] {
          pool.parallel_for(0, chunks, [&](std::size_t c) {
            const std::size_t hi = std::min(n, (c + 1) * kChunk);
            for (std::size_t i = c * kChunk; i < hi; ++i)
              featurizer.encode_into(shard.files()[i], day, current[i],
                                     rows.subspan(i * width, width));
          });
        },
        /*top=*/false);
    const std::vector<rl::Action> actions = ledger_.time(
        "rl.act",
        [&] { return agent.act_features_batch(rows_, n, true, &pool); },
        /*top=*/false);
    for (std::size_t i = 0; i < n; ++i)
      out[i] = pricing::tier_from_index(actions[i]);
    ledger_.count("rl.rows", static_cast<double>(n));
  }

  const pricing::PricingPolicy& prices_;
  std::size_t start_day_;
  std::size_t end_day_;
  core::DecisionCache* cache_;
  Ledger& ledger_;
  std::vector<double> rows_;
};

/// store.materialize plus the codec's byte counts for the chunks it
/// decoded, read from the v2 container's chunk table.
trace::RequestTrace materialize(const store::TraceReader& reader,
                                std::size_t first, std::size_t count,
                                Ledger& ledger) {
  trace::RequestTrace shard = ledger.time(
      "store.materialize", [&] { return reader.materialize_shard(first, count); });
  double encoded = 0.0;
  double decoded = 0.0;
  if (reader.is_v2() && count > 0) {
    const std::size_t per_chunk = reader.v2_ext().files_per_chunk;
    const auto table = reader.chunk_table();
    for (std::size_t c = first / per_chunk; c <= (first + count - 1) / per_chunk;
         ++c) {
      encoded += static_cast<double>(table[c].encoded_bytes);
      decoded += static_cast<double>(table[c].raw_bytes);
    }
  }
  ledger.count("store.encoded_bytes", encoded);
  ledger.count("store.decoded_bytes", decoded);
  return shard;
}

struct Partition {
  std::vector<std::pair<std::size_t, std::size_t>> shards;  ///< (first, count)

  Partition(std::size_t files, std::size_t shard_files) {
    const std::size_t width = shard_files == 0 ? files : shard_files;
    for (std::size_t first = 0; first < files; first += width)
      shards.emplace_back(first, std::min(width, files - first));
  }
};

/// The resident planner `minicost plan` and `--serve` run: per-shard bills
/// are kept, a replan re-plans only dirty shards and splices the rest.
class TracedDriver {
 public:
  TracedDriver(const store::TraceReader& reader,
               const pricing::PricingPolicy& prices, TracedPolicy& policy,
               std::size_t shard_files, core::DecisionCache* cache)
      : reader_(reader),
        policy_(policy),
        partition_(reader.file_count(), shard_files),
        start_day_(reader.days() > kWindowDays ? reader.days() - kWindowDays : 1),
        prices_(prices),
        cache_(cache),
        shard_reports_(partition_.shards.size()),
        dirty_(partition_.shards.size(), true) {}

  void mark_dirty(std::size_t first, std::size_t count) {
    if (count == 0 || partition_.shards.empty()) return;
    const std::size_t width = partition_.shards.front().second;
    for (std::size_t s = first / width;
         s <= (first + count - 1) / width && s < dirty_.size(); ++s)
      dirty_[s] = true;
  }

  /// Re-plans the dirty shards (all of them on the first call).
  sim::BillingReport replan(Ledger& ledger) {
    ShardPlanner planner(prices_, start_day_, reader_.days(), cache_, ledger);
    sim::BillingReport full(reader_.file_count(), reader_.days() - start_day_);
    for (std::size_t s = 0; s < partition_.shards.size(); ++s) {
      const auto [first, count] = partition_.shards[s];
      if (dirty_[s]) {
        const trace::RequestTrace shard = materialize(reader_, first, count, ledger);
        shard_reports_[s] = planner.plan(shard, policy_);
        ledger.count("core.replanned_shards", 1.0);
      }
      ledger.time("core.merge", [&] { full.merge_shard(shard_reports_[s], first); });
      if (dirty_[s])
        ledger.time("store.release",
                    [&] { reader_.release_frequency_range(first, count); });
    }
    dirty_.assign(dirty_.size(), false);
    return full;
  }

 private:
  const store::TraceReader& reader_;
  TracedPolicy& policy_;
  Partition partition_;
  std::size_t start_day_;
  const pricing::PricingPolicy& prices_;
  core::DecisionCache* cache_;
  std::vector<sim::BillingReport> shard_reports_;
  std::vector<bool> dirty_;
};

std::string bill_json(const std::string& name, const sim::BillingReport& report) {
  std::ostringstream out;
  out << obs::json::quote(name) << ":{\"total\":\""
      << fmt(report.grand_total().total())
      << "\",\"tier_changes\":" << report.tier_changes() << "}";
  return out.str();
}

// -------------------------------------------------------------- commands --

int cmd_env() {
  const obs::EnvFingerprint env = obs::current_fingerprint();
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  std::cout << "{\"compiler\":" << obs::json::quote(env.compiler)
            << ",\"build_type\":" << obs::json::quote(env.build_type)
            << ",\"sanitize\":" << obs::json::quote(env.sanitize)
            << ",\"sanitized\":" << (sanitized ? "true" : "false")
            << ",\"optimized\":" << (optimized ? "true" : "false")
            << ",\"obs_compiled\":" << (obs::kCompiledIn ? "true" : "false")
            << ",\"obs_enabled\":" << (obs::enabled() ? "true" : "false")
            << ",\"hardware_threads\":" << env.threads
            << ",\"pool_threads\":" << util::ThreadPool::shared().size()
            << ",\"trainer_workers\":" << rl::A3CConfig{}.workers << "}\n";
  return 0;
}

int cmd_fingerprint(int argc, const char* const* argv) {
  util::Cli cli("mcbench fingerprint", "decision fingerprint of a checkpoint");
  cli.add_flag("agent", "", "A3C checkpoint");
  if (!cli.parse(argc, argv)) return 1;
  const auto agent = load_agent(cli.str("agent"));
  std::cout << "{\"decision_fingerprint\":\"" << agent->decision_fingerprint(true)
            << "\",\"parameters\":" << agent->parameter_count() << "}\n";
  return 0;
}

/// Trains the fixed agent plan-minicost deploys. Run once; the checkpoint
/// and its fingerprint are committed beside the benchmark.
int cmd_make_agent(int argc, const char* const* argv) {
  util::Cli cli("mcbench make-agent", "train the benchmark's fixed agent");
  cli.add_flag("out", "agent.ckpt", "checkpoint path");
  if (!cli.parse(argc, argv)) return 1;
  trace::SyntheticConfig config;
  config.file_count = kMakeAgentFiles;
  config.seed = kMakeAgentSeed;
  config.integral_counts = true;
  config.grouped_file_fraction = 0.0;
  const trace::RequestTrace full = trace::generate_synthetic(config);
  const auto [train, test] = full.split(0.8, config.seed);
  rl::A3CAgent agent(rl::A3CConfig{}, config.seed);
  rl::TrainOptions options;
  options.episodes = kMakeAgentEpisodes;
  agent.train(train, pricing::PricingPolicy::azure_2020(), options);
  agent.save(cli.str("out"));
  const auto reloaded = load_agent(cli.str("out"));
  std::cout << "{\"files\":" << kMakeAgentFiles << ",\"seed\":" << kMakeAgentSeed
            << ",\"episodes\":" << kMakeAgentEpisodes
            << ",\"decision_fingerprint\":\""
            << reloaded->decision_fingerprint(true) << "\"}\n";
  return 0;
}

int cmd_plan(int argc, const char* const* argv) {
  util::Cli cli("mcbench plan", "traced one-shot plan of a .mct store");
  cli.add_flag("policy", "optimal", "comma list: rl | hot | cold | greedy | optimal");
  cli.add_flag("agent", "", "A3C checkpoint for rl");
  if (!cli.parse(argc, argv) || cli.positional().empty()) return 1;

  Ledger ledger;
  const Sample start = now();
  const auto reader = ledger.time("store.open", [&] {
    return std::make_unique<store::TraceReader>(cli.positional().front());
  });
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
  std::vector<std::string> bills;
  for (const std::string& name : split_list(cli.str("policy"))) {
    TracedPolicy traced = make_traced_policy(name, cli.str("agent"), ledger);
    TracedDriver driver(*reader, prices, traced, kPlanShardFiles, nullptr);
    bills.push_back(bill_json(traced.policy->name(), driver.replan(ledger)));
  }
  const Sample end = now();
  std::cout << "{\"bills\":{";
  for (std::size_t i = 0; i < bills.size(); ++i)
    std::cout << (i ? "," : "") << bills[i];
  std::cout << "},\"wall\":" << fmt(end.wall - start.wall)
            << ",\"cpu\":" << fmt(end.cpu - start.cpu)
            << ",\"ledger\":" << ledger.json() << "}\n";
  return 0;
}

/// Warm plan, then one `touch FIRST COUNT` + `replan` per line of the
/// request file; the ledger covers the replans only.
int cmd_serve(int argc, const char* const* argv) {
  util::Cli cli("mcbench serve", "traced resident replan loop");
  cli.add_flag("agent", "", "A3C checkpoint");
  cli.add_flag("shard-files", "2048", "files per shard");
  cli.add_flag("requests", "", "file of `FIRST COUNT` lines");
  if (!cli.parse(argc, argv) || cli.positional().empty()) return 1;

  const store::TraceReader reader(cli.positional().front());
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
  Ledger setup;
  TracedPolicy traced = make_traced_policy("rl", cli.str("agent"), setup);
  core::DecisionCache cache{core::DecisionCacheConfig{}};
  TracedDriver driver(reader, prices, traced,
                      static_cast<std::size_t>(cli.integer("shard-files")),
                      &cache);
  const std::string warm_total = fmt(driver.replan(setup).grand_total().total());
  const core::DecisionCacheStats before = cache.stats();

  Ledger ledger;
  std::ifstream requests(cli.str("requests"));
  std::size_t first = 0;
  std::size_t count = 0;
  std::vector<std::string> totals;
  double wall = 0.0;
  double cpu = 0.0;
  while (requests >> first >> count) {
    const Sample start = now();
    driver.mark_dirty(first, count);
    const sim::BillingReport report = driver.replan(ledger);
    const Sample end = now();
    wall += end.wall - start.wall;
    cpu += end.cpu - start.cpu;
    totals.push_back(fmt(report.grand_total().total()));
  }
  const core::DecisionCacheStats after = cache.stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups = hits + static_cast<double>(after.misses - before.misses);
  const double rows = static_cast<double>(after.dedup_rows - before.dedup_rows);
  const double unique =
      static_cast<double>(after.dedup_unique_rows - before.dedup_unique_rows);
  ledger.set("core.cache.hit_rate", lookups > 0 ? hits / lookups : 0.0);
  ledger.set("core.cache.dedup_ratio", unique > 0 ? rows / unique : 1.0);
  ledger.set("core.cache.resident_mib",
             static_cast<double>(after.resident_bytes) / (1024.0 * 1024.0));

  std::cout << "{\"warm_total\":\"" << warm_total << "\",\"totals\":[";
  for (std::size_t i = 0; i < totals.size(); ++i)
    std::cout << (i ? "," : "") << "\"" << totals[i] << "\"";
  std::cout << "],\"wall\":" << fmt(wall) << ",\"cpu\":" << fmt(cpu)
            << ",\"ledger\":" << ledger.json() << "}\n";
  return 0;
}

/// One train-then-plan round on a fresh agent. Training is deterministic
/// for a fixed agent seed and episode count, so every round bills the same.
struct Round {
  double wall = 0.0;
  double cpu = 0.0;
  double train_wall = 0.0;
  std::size_t env_steps = 0;
  sim::BillingReport report;
};

int cmd_train(int argc, const char* const* argv) {
  util::Cli cli("mcbench train", "A3C training workload");
  cli.add_flag("split-seed", "42", "80/20 train/test file split seed");
  cli.add_flag("seconds", "10", "run rounds for at least this long");
  if (!cli.parse(argc, argv) || cli.positional().empty()) return 1;

  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
  Ledger ledger;
  const Sample load_start = now();
  const auto reader = ledger.time("store.open", [&] {
    return std::make_unique<store::TraceReader>(cli.positional().front());
  });
  const trace::RequestTrace full =
      materialize(*reader, 0, reader->file_count(), ledger);
  const auto [train, test] =
      full.split(0.8, static_cast<std::uint64_t>(cli.integer("split-seed")));
  const Sample load_end = now();
  const double load_seconds = load_end.wall - load_start.wall;
  const double load_cpu = load_end.cpu - load_start.cpu;

  core::PlanOptions options;
  options.start_day = test.days() > kWindowDays ? test.days() - kWindowDays : 1;
  options.initial_tiers =
      core::static_initial_tiers(test, prices, options.start_day);
  core::OptimalPolicy optimal;
  const std::string optimal_total =
      fmt(core::run_policy(test, prices, optimal, options)
              .report.grand_total()
              .total());

  rl::TrainOptions train_options;
  train_options.episodes = kTrainEpisodes;
  train_options.report_every = train_options.episodes;

  const auto run_round = [&] {
    Round round;
    const Sample start = now();
    rl::A3CAgent agent(rl::A3CConfig{}, kAgentSeed);
    agent.train(train, prices, train_options);
    round.train_wall = now().wall - start.wall;
    round.env_steps = agent.trained_steps();
    core::RlPolicy policy(agent);
    round.report = core::run_policy(test, prices, policy, options).report;
    const Sample end = now();
    round.wall = end.wall - start.wall;
    round.cpu = end.cpu - start.cpu;
    return round;
  };

  std::vector<Round> rounds;
  const double deadline = now().wall + cli.real("seconds");
  while (rounds.size() < kTrainMinRounds || now().wall < deadline)
    rounds.push_back(run_round());

  // The traced round: train() has no inner public boundary, so its phases
  // come from the trainer's own obs timers; the held-out plan is split into
  // layer calls like `mcbench plan`. Its bill is the reference the rounds
  // above are checked against.
  obs::Registry::global().reset();
  const Sample start = now();
  auto agent = std::make_unique<rl::A3CAgent>(rl::A3CConfig{}, kAgentSeed);
  ledger.time("rl.train", [&] { agent->train(train, prices, train_options); });
  const auto timer_seconds = [](const char* name) {
    return obs::timer(name).stats().total_seconds();
  };
  const auto counter = [](const char* name) {
    return static_cast<double>(obs::counter(name).value());
  };
  ledger.set("rl.train.rollout_s", timer_seconds("rl.a3c.rollout"));
  ledger.set("rl.train.grad_s", timer_seconds("rl.a3c.grad"));
  ledger.set("rl.train.opt_step_s", timer_seconds("rl.a3c.opt_step"));
  ledger.set("rl.train.sync_wait_s", 1e-9 * counter("rl.a3c.sync.wait_ns"));
  ledger.set("rl.train.lock_wait_s", 1e-9 * counter("rl.a3c.opt_step.lock_wait_ns"));
  ledger.set("rl.train.env_steps", static_cast<double>(agent->trained_steps()));
  ledger.set("rl.train.episodes", static_cast<double>(agent->trained_episodes()));

  TracedPolicy policy;
  policy.key = "minicost";
  policy.agent = std::move(agent);
  policy.policy = std::make_unique<core::RlPolicy>(*policy.agent);
  ShardPlanner planner(prices, options.start_day, test.days(), nullptr, ledger);
  const sim::BillingReport shard_report = planner.plan(test, policy);
  sim::BillingReport report(test.file_count(), test.days() - options.start_day);
  ledger.time("core.merge", [&] { report.merge_shard(shard_report, 0); });
  const Sample end = now();

  std::cout << "{\"test_files\":" << test.file_count()
            << ",\"window_days\":" << test.days() - options.start_day
            << ",\"episodes\":" << train_options.episodes
            << ",\"load_seconds\":" << fmt(load_seconds)
            << ",\"optimal_total\":\"" << optimal_total << "\",\"rounds\":[";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    std::cout << (i ? "," : "") << "{\"wall\":" << fmt(r.wall)
              << ",\"cpu\":" << fmt(r.cpu)
              << ",\"train_wall\":" << fmt(r.train_wall)
              << ",\"env_steps\":" << r.env_steps << ",\"total\":\""
              << fmt(r.report.grand_total().total())
              << "\",\"tier_changes\":" << r.report.tier_changes() << "}";
  }
  // The store load is part of the traced run: its spans sit in the ledger.
  std::cout << "],\"traced\":{\"total\":\"" << fmt(report.grand_total().total())
            << "\",\"wall\":" << fmt(load_seconds + end.wall - start.wall)
            << ",\"cpu\":" << fmt(load_cpu + end.cpu - start.cpu)
            << ",\"ledger\":" << ledger.json() << "}}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mcbench env|fingerprint|make-agent|plan|serve|train\n";
    return 2;
  }
  const std::string command = argv[1];
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "env") return cmd_env();
    if (command == "fingerprint") return cmd_fingerprint(sub_argc, sub_argv);
    if (command == "make-agent") return cmd_make_agent(sub_argc, sub_argv);
    if (command == "plan") return cmd_plan(sub_argc, sub_argv);
    if (command == "serve") return cmd_serve(sub_argc, sub_argv);
    if (command == "train") return cmd_train(sub_argc, sub_argv);
  } catch (const std::exception& error) {
    std::cerr << "mcbench " << command << ": " << error.what() << "\n";
    return 1;
  }
  std::cerr << "mcbench: unknown command '" << command << "'\n";
  return 2;
}
