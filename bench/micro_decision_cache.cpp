// Decision-reuse throughput: the dedup-aware decision-reuse layers
// (DESIGN.md §15) vs the no-reuse act_batch reference, over the Fig. 2-
// shaped integral-counts workload where ~80% of files sit in the lowest
// variability bucket and their exact feature windows repeat massively.
// The reference is a bench-local policy that forwards every file through
// A3CAgent::act_batch; RlPolicy with the cache off already dedups each
// day, so it is the second ("default") column, not the reference.
//
// One size per run: MINICOST_SCALE files (default 100k; the CI perf gate
// runs 20k) x 62 days, planned over the last 35 days with a fresh
// deterministically-initialized MiniCost agent (training moves no bits that
// matter here — the cache contract is against whatever parameters are
// deployed). Three measurements:
//   * headline   PlanDriver over the full mixture: the reference vs
//                RlPolicy with the cache on (speedup: files/s from decide
//                time, hit rate, dedup ratio), and RlPolicy cache-off
//                (the default intra-day dedup) vs cache-on
//                (speedup_cross_day, ungated: what the cross-day table
//                adds over the default);
//   * buckets    the reference vs cache-on pair over the low
//                (0-0.1 std-dev), mid (0.1-0.3) and high (0.3+) bucket
//                sub-traces — speedup_low is the gated number (>= 1.5x);
//   * matrix     bills_identical for the reference, RlPolicy cache-off and
//                cache-on across shard sizes {1, 7, all} x pool sizes
//                {1, 4} at reduced scale.
// Every bill must match bit for bit (bills_identical == 1): exact keys +
// deterministic network mean reuse can not move a single ULP.
//
// Output: one JSON object on stdout, mirrored to
// bench_out()/micro_decision_cache_raw.json; the schema-versioned run
// report for the CI perf gate goes to bench_out()/micro_decision_cache.json.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/decision_cache.hpp"
#include "core/plan_driver.hpp"
#include "core/rl_policy.hpp"
#include "obs/metrics.hpp"
#include "rl/a3c.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/analysis.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace minicost;

bool same_bill(const sim::BillingReport& a, const sim::BillingReport& b) {
  return a.per_file_totals() == b.per_file_totals() &&
         a.tier_changes() == b.tier_changes() &&
         a.grand_total().total() == b.grand_total().total();
}

void write_store(const std::filesystem::path& mct,
                 const trace::SyntheticConfig& config) {
  store::TraceWriter writer(mct, config.days);
  constexpr std::size_t kChunk = 16384;
  for (std::size_t first = 0; first < config.file_count; first += kChunk) {
    const std::size_t count = std::min(kChunk, config.file_count - first);
    for (const trace::FileRecord& f :
         trace::generate_synthetic_files(config, first, count))
      writer.add_file(f.name, f.size_gb, f.reads, f.writes);
  }
  writer.finish();
}

/// The no-reuse reference: decides every file of a day through one
/// A3CAgent::act_batch — no dedup, no cache.
class ActBatchPolicy final : public core::TieringPolicy {
 public:
  explicit ActBatchPolicy(rl::A3CAgent& agent) : agent_(agent) {}

  std::string name() const override { return "MiniCost"; }
  core::Knowledge knowledge() const noexcept override {
    return core::Knowledge::kHistory;
  }
  pricing::StorageTier decide(const core::PlanContext& context,
                              trace::FileId file, std::size_t day,
                              pricing::StorageTier current) override {
    if (day < agent_.featurizer().history_len()) return current;
    return pricing::tier_from_index(
        agent_.act(context.trace.file(file), day, current));
  }
  void decide_day(const core::PlanContext& context, std::size_t day,
                  std::span<const pricing::StorageTier> current,
                  std::span<pricing::StorageTier> out_plan) override {
    if (day < agent_.featurizer().history_len()) {
      std::copy(current.begin(), current.end(), out_plan.begin());
      return;
    }
    const std::vector<rl::Action> actions =
        agent_.act_batch(context.trace.files(), day, current, true,
                         &core::plan_pool(context));
    for (std::size_t i = 0; i < actions.size(); ++i)
      out_plan[i] = pricing::tier_from_index(actions[i]);
  }

 private:
  rl::A3CAgent& agent_;
};

struct BucketResult {
  double speedup = 0.0;
  double hit_rate = 0.0;
  double dedup_ratio = 0.0;
  double files_per_sec = 0.0;  ///< decided file-days per second, cache on
  bool identical = true;
};

/// Reference vs cache-on run_policy over one bucket's sub-trace.
BucketResult run_bucket(const trace::RequestTrace& full,
                        const std::vector<trace::FileId>& members,
                        const pricing::PricingPolicy& prices,
                        ActBatchPolicy& reference, core::RlPolicy& policy,
                        std::size_t start_day) {
  BucketResult result;
  if (members.empty()) return result;
  std::vector<trace::FileRecord> files;
  files.reserve(members.size());
  for (const trace::FileId id : members) files.push_back(full.file(id));
  const trace::RequestTrace sub(full.days(), std::move(files));

  core::PlanOptions options;
  options.start_day = start_day;
  const core::PlanResult off =
      core::run_policy(sub, prices, reference, options);

  core::DecisionCache cache;
  options.decision_cache = &cache;
  const core::PlanResult on = core::run_policy(sub, prices, policy, options);

  const core::DecisionCacheStats stats = cache.stats();
  const double window = static_cast<double>(sub.days() - start_day);
  result.speedup = on.decision_seconds > 0.0
                       ? off.decision_seconds / on.decision_seconds
                       : 0.0;
  result.hit_rate = stats.hit_rate();
  result.dedup_ratio = stats.dedup_ratio();
  result.files_per_sec =
      on.decision_seconds > 0.0
          ? static_cast<double>(sub.file_count()) * window / on.decision_seconds
          : 0.0;
  result.identical = same_bill(off.report, on.report);
  return result;
}

/// probe_batch ns per hit over one day's decision states of every file in
/// `trace` (up to half the default capacity, so all of them are resident),
/// probed in the decide path's 1024-key chunks. Runs with obs off, so the
/// run report's core.cache.* counters still count the planning runs only.
double probe_hit_ns(const trace::RequestTrace& trace, rl::A3CAgent& agent,
                    std::size_t day) {
  const rl::Featurizer& featurizer = agent.featurizer();
  const std::size_t h = featurizer.history_len();
  const double day_phase = featurizer.config().include_day_of_week
                               ? static_cast<double>(day % 7)
                               : -1.0;
  const std::uint64_t epoch = agent.decision_fingerprint(true);
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(false);
  core::DecisionCache cache;
  obs::set_enabled(obs_was_enabled);
  const std::size_t n =
      std::min(trace.file_count(), core::DecisionCacheConfig{}.capacity / 2);
  std::vector<core::DecisionKey> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const trace::FileRecord& f = trace.file(i);
    keys[i] = {std::span<const double>(f.reads).subspan(day - h, h),
               f.writes[day - 1], f.size_gb, 0.0, day_phase};
    cache.insert(epoch, keys[i], 0);
  }
  constexpr std::size_t kChunk = 1024;
  std::vector<std::uint8_t> actions(kChunk);
  std::vector<std::uint64_t> hashes(kChunk);
  std::size_t hits = 0;
  const util::Stopwatch watch;
  for (std::size_t round = 0; round < 20; ++round) {
    for (std::size_t lo = 0; lo < n; lo += kChunk) {
      const std::size_t len = std::min(kChunk, n - lo);
      hits += cache.probe_batch(epoch, std::span(keys).subspan(lo, len),
                                std::span(actions).first(len),
                                std::span(hashes).first(len));
    }
  }
  return hits == 0 ? 0.0 : watch.seconds() * 1e9 / static_cast<double>(hits);
}

}  // namespace

int main() {
  const std::size_t days = 62;
  const auto files = static_cast<std::size_t>(util::bench_scale(100'000));

  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = days;
  config.seed = util::bench_seed();
  config.grouped_file_fraction = 0.0;  // streamable
  config.integral_counts = true;       // Fig. 2-shaped repetitive windows

  const std::filesystem::path dir = benchx::bench_out();
  const std::filesystem::path mct = dir / "micro_decision_cache.mct";
  write_store(mct, config);

  const store::TraceReader reader(mct);
  const pricing::PricingPolicy prices = benchx::standard_pricing();
  const std::size_t start_day = days > 35 ? days - 35 : 1;

  rl::A3CConfig agent_config;
  agent_config.workers = 1;  // decide-only deployment, no training here
  rl::A3CAgent agent(agent_config, 1234);
  core::RlPolicy policy(agent);
  ActBatchPolicy reference(agent);

  core::PlanDriverOptions options;
  options.shard_files = std::max<std::size_t>(4096, files / 16);
  options.start_day = start_day;

  // Headline: the full Fig. 2 mixture through the PlanDriver.
  options.decision_cache = false;
  core::PlanDriver driver_off(reader, prices, {&reference}, options);
  const core::PlanDriverRun off = driver_off.run().front();

  core::PlanDriver driver_default(reader, prices, {&policy}, options);
  const core::PlanDriverRun dedup = driver_default.run().front();

  options.decision_cache = true;
  core::PlanDriver driver_on(reader, prices, {&policy}, options);
  const core::PlanDriverRun on = driver_on.run().front();

  bool identical = same_bill(off.report, on.report) &&
                   same_bill(off.report, dedup.report);

  const double window = static_cast<double>(days - start_day);
  const double file_days = static_cast<double>(files) * window;
  const double files_per_sec_off =
      off.decision_seconds > 0.0 ? file_days / off.decision_seconds : 0.0;
  const double files_per_sec_on =
      on.decision_seconds > 0.0 ? file_days / on.decision_seconds : 0.0;
  const double speedup = on.decision_seconds > 0.0
                             ? off.decision_seconds / on.decision_seconds
                             : 0.0;
  const double speedup_cross_day =
      on.decision_seconds > 0.0
          ? dedup.decision_seconds / on.decision_seconds
          : 0.0;
  const double hit_rate = on.cache_stats.hit_rate();
  const double dedup_ratio = on.cache_stats.dedup_ratio();

  // Per-bucket: low (0-0.1 std-dev) is the paper's ~80% bulk and the gated
  // workload; mid/high shrink the reuse pool and are informational.
  const trace::RequestTrace full = reader.materialize();
  const trace::VariabilityAnalysis analysis = trace::analyze_variability(full);
  std::vector<trace::FileId> low, mid, high;
  for (std::size_t b = 0; b < analysis.bucket_members.size(); ++b) {
    const std::vector<trace::FileId>& members = analysis.bucket_members[b];
    std::vector<trace::FileId>& group = b == 0 ? low : (b <= 2 ? mid : high);
    group.insert(group.end(), members.begin(), members.end());
  }
  const BucketResult low_r =
      run_bucket(full, low, prices, reference, policy, start_day);
  const BucketResult mid_r =
      run_bucket(full, mid, prices, reference, policy, start_day);
  const BucketResult high_r =
      run_bucket(full, high, prices, reference, policy, start_day);
  const double hit_ns = probe_hit_ns(full, agent, days - 1);
  identical = identical && low_r.identical && mid_r.identical &&
              high_r.identical;

  // bills_identical matrix at reduced scale: shard {1,7,all} x pool {1,4}
  // x {reference, cache off, cache on} — every cell one bit-identical bill.
  const std::size_t matrix_files = std::min<std::size_t>(files, 800);
  trace::SyntheticConfig matrix_config = config;
  matrix_config.file_count = matrix_files;
  const std::filesystem::path matrix_mct = dir / "micro_decision_cache_m.mct";
  write_store(matrix_mct, matrix_config);
  {
    const store::TraceReader matrix_reader(matrix_mct);
    util::ThreadPool pool1(1), pool4(4);
    const std::pair<core::TieringPolicy*, bool> deciders[] = {
        {&reference, false}, {&policy, false}, {&policy, true}};
    sim::BillingReport first_bill;
    bool have_first = false;
    for (const std::size_t shard_files : {std::size_t{1}, std::size_t{7},
                                          std::size_t{0}}) {
      for (util::ThreadPool* pool : {&pool1, &pool4}) {
        for (const auto& [decider, cached] : deciders) {
          core::PlanDriverOptions cell = options;
          cell.shard_files = shard_files;
          cell.pool = pool;
          cell.decision_cache = cached;
          core::PlanDriver driver(matrix_reader, prices, {decider}, cell);
          core::PlanDriverRun run = driver.run().front();
          if (!have_first) {
            first_bill = std::move(run.report);
            have_first = true;
          } else {
            identical = identical && same_bill(first_bill, run.report);
          }
        }
      }
    }
  }

  const std::vector<std::pair<std::string, double>> metrics{
      {"files_per_sec_off", files_per_sec_off},
      {"files_per_sec_on", files_per_sec_on},
      {"speedup", speedup},
      {"speedup_cross_day", speedup_cross_day},
      {"hit_rate", hit_rate},
      {"dedup_ratio", dedup_ratio},
      {"speedup_low", low_r.speedup},
      {"hit_rate_low", low_r.hit_rate},
      {"dedup_ratio_low", low_r.dedup_ratio},
      {"files_per_sec_low", low_r.files_per_sec},
      {"speedup_mid", mid_r.speedup},
      {"hit_rate_mid", mid_r.hit_rate},
      {"dedup_ratio_mid", mid_r.dedup_ratio},
      {"speedup_high", high_r.speedup},
      {"hit_rate_high", high_r.hit_rate},
      {"dedup_ratio_high", high_r.dedup_ratio},
      {"probe_hit_ns", hit_ns},
      {"decide_off_seconds", off.decision_seconds},
      {"decide_default_seconds", dedup.decision_seconds},
      {"decide_on_seconds", on.decision_seconds},
      {"cache_resident_mib",
       static_cast<double>(on.cache_stats.resident_bytes) / (1024.0 * 1024.0)},
      {"bills_identical", identical ? 1.0 : 0.0},
  };

  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"bench\":\"micro_decision_cache\",\"files\":%zu,\"days\":%zu,"
      "\"files_per_sec_off\":%.0f,\"files_per_sec_on\":%.0f,"
      "\"speedup\":%.2f,\"speedup_cross_day\":%.2f,\"hit_rate\":%.4f,"
      "\"dedup_ratio\":%.2f,"
      "\"speedup_low\":%.2f,\"hit_rate_low\":%.4f,\"dedup_ratio_low\":%.2f,"
      "\"speedup_mid\":%.2f,\"hit_rate_mid\":%.4f,"
      "\"speedup_high\":%.2f,\"hit_rate_high\":%.4f,\"probe_hit_ns\":%.1f,"
      "\"decide_off_seconds\":%.4f,\"decide_default_seconds\":%.4f,"
      "\"decide_on_seconds\":%.4f,"
      "\"bills_identical\":%s}",
      files, days, files_per_sec_off, files_per_sec_on, speedup,
      speedup_cross_day, hit_rate, dedup_ratio, low_r.speedup, low_r.hit_rate,
      low_r.dedup_ratio,
      mid_r.speedup, mid_r.hit_rate, high_r.speedup, high_r.hit_rate, hit_ns,
      off.decision_seconds, dedup.decision_seconds, on.decision_seconds,
      identical ? "true" : "false");

  std::printf("%s\n", buf);
  std::ofstream(dir / "micro_decision_cache_raw.json") << buf << "\n";
  benchx::write_run_report("micro_decision_cache", metrics);

  std::filesystem::remove(mct);
  std::filesystem::remove(matrix_mct);
  return identical ? 0 : 1;
}
