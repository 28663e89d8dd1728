// tracepack — pack, inspect, verify, and evaluate .mct trace containers.
//
//   tracepack pack     <trace.csv> <trace.mct>
//   tracepack unpack   <trace.mct> <trace.csv>
//   tracepack info     <trace.mct>
//   tracepack verify   <trace.mct>
//   tracepack generate --files 1000000 --days 62 --out trace.mct
//   tracepack eval     <trace.mct> --policy greedy --shard-files 65536
//
// `generate` streams the synthetic workload into the container chunk by
// chunk (generate_synthetic_files), so a 1M-file, 62-day trace packs in a
// few hundred MB of RAM; `eval` runs a policy shard-streamed
// (core/plan_driver.hpp) and can check the merged bill bit-for-bit against
// the monolithic in-memory path with --compare.

#include <cinttypes>
#include <cstring>
#include <iostream>
#include <memory>

#include "codec/chunk_codec.hpp"
#include "core/forecast_policy.hpp"
#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/plan_driver.hpp"
#include "obs/run_report.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace minicost;

using obs::peak_rss_mib;

std::unique_ptr<core::TieringPolicy> make_policy(const std::string& which) {
  if (which == "hot") return core::make_hot_policy();
  if (which == "cold") return core::make_cold_policy();
  if (which == "greedy") return std::make_unique<core::GreedyPolicy>();
  if (which == "mpc") return std::make_unique<core::ForecastMpcPolicy>();
  if (which == "optimal") return std::make_unique<core::OptimalPolicy>();
  return nullptr;
}

pricing::PricingPolicy make_prices(const std::string& preset) {
  return preset == "s3"    ? pricing::PricingPolicy::s3_like()
         : preset == "gcs" ? pricing::PricingPolicy::gcs_like()
                           : pricing::PricingPolicy::azure_2020();
}

/// Shared --codec/--files-per-chunk handling for pack and generate. Returns
/// false (after printing a one-line error) on a bad combination.
bool writer_options_from_cli(const util::Cli& cli, const char* command,
                             store::WriterOptions& options) {
  options.codec = cli.str("codec");
  if (options.codec == "v1") options.codec.clear();  // explicit v1 spelling
  const std::int64_t per_chunk = cli.integer("files-per-chunk");
  if (per_chunk < 1 ||
      per_chunk > static_cast<std::int64_t>(store::kMaxFilesPerChunk)) {
    std::cerr << command << ": --files-per-chunk must be in [1, "
              << store::kMaxFilesPerChunk << "] (got " << per_chunk << ")\n";
    return false;
  }
  options.files_per_chunk = static_cast<std::uint32_t>(per_chunk);
  return true;
}

int cmd_pack(int argc, const char* const* argv) {
  util::Cli cli("tracepack pack", "convert a CSV trace to a .mct container");
  cli.add_flag("codec", "v1",
               "container codec: v1 (uncompressed version 1 layout) or a v2 "
               "chunk codec: raw | delta | zstd | delta+zstd");
  cli.add_flag("files-per-chunk", "1024", "files per v2 chunk");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().size() != 2) {
    std::cerr << "pack: need <trace.csv> <trace.mct>\n";
    return 1;
  }
  store::WriterOptions options;
  if (!writer_options_from_cli(cli, "pack", options)) return 1;
  const trace::RequestTrace tr = trace::load_trace(cli.positional()[0]);
  store::pack_trace(tr, cli.positional()[1], options);
  std::cout << "packed " << tr.file_count() << " files x " << tr.days()
            << " days (" << tr.groups().size() << " groups) into "
            << cli.positional()[1] << " (codec " << cli.str("codec") << ")\n";
  return 0;
}

int cmd_unpack(int argc, const char* const* argv) {
  util::Cli cli("tracepack unpack", "expand a .mct container back to CSV");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().size() != 2) {
    std::cerr << "unpack: need <trace.mct> <trace.csv>\n";
    return 1;
  }
  const store::TraceReader reader(cli.positional()[0]);
  trace::save_trace(reader.materialize(), cli.positional()[1]);
  std::cout << "unpacked " << reader.file_count() << " files to "
            << cli.positional()[1] << "\n";
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  util::Cli cli("tracepack info", "describe a .mct container");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().empty()) {
    std::cerr << "info: need a .mct file\n";
    return 1;
  }
  const store::TraceReader reader(cli.positional().front());
  const store::Header& h = reader.header();
  const auto size_cell = [](std::uint64_t bytes) {
    return util::format_double(static_cast<double>(bytes) / (1024.0 * 1024.0),
                               2) +
           " MiB (" + util::format_count(bytes) + " B)";
  };
  util::Table table({"field", "value"});
  table.add_row({"format version", std::to_string(h.version)});
  if (reader.is_v2()) {
    const store::HeaderV2Ext& ext = reader.v2_ext();
    table.add_row({"codec",
                   std::string(codec::reserved_codec_name(ext.codec_id)) +
                       " (id " + std::to_string(ext.codec_id) + ")"});
    table.add_row({"chunks", util::format_count(ext.chunk_count) + " x " +
                                 util::format_count(ext.files_per_chunk) +
                                 " files"});
  } else {
    table.add_row({"codec", "v1/raw"});
  }
  table.add_row({"days", std::to_string(h.days)});
  table.add_row({"files", util::format_count(h.file_count)});
  table.add_row({"co-request groups", util::format_count(h.group_count)});
  table.add_row({"series stride", std::to_string(h.series_stride) + " B"});
  table.add_row({"frequency section", size_cell(h.freq_bytes)});
  if (reader.is_v2()) {
    table.add_row({"frequency decoded", size_cell(reader.freq_raw_bytes())});
    table.add_row(
        {"compression ratio",
         h.freq_bytes == 0
             ? "n/a"
             : util::format_double(static_cast<double>(reader.freq_raw_bytes()) /
                                       static_cast<double>(h.freq_bytes),
                                   2) +
                   "x"});
    table.add_row({"chunk table", size_cell(reader.v2_ext().chunk_table_bytes)});
  }
  table.add_row({"file table", size_cell(h.file_table_bytes)});
  table.add_row({"name blob", size_cell(h.names_bytes)});
  table.add_row({"group section", size_cell(h.groups_bytes)});
  table.add_row({"container size", size_cell(h.total_bytes)});
  std::cout << cli.positional().front() << ":\n" << table.to_string();
  return 0;
}

int cmd_verify(int argc, const char* const* argv) {
  util::Cli cli("tracepack verify", "full checksum scan of a .mct container");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().empty()) {
    std::cerr << "verify: need a .mct file\n";
    return 1;
  }
  // Opening already validates structure + metadata checksums; this pages in
  // and checks the frequency section too.
  const store::TraceReader reader(cli.positional().front());
  reader.verify_checksums();
  std::cout << cli.positional().front() << ": OK ("
            << util::format_count(reader.file_count()) << " files x "
            << reader.days() << " days, all checksums match)\n";
  return 0;
}

int cmd_generate(int argc, const char* const* argv) {
  util::Cli cli("tracepack generate",
                "stream a synthetic workload straight into a .mct container");
  cli.add_flag("files", "100000", "number of data files");
  cli.add_flag("days", "62", "horizon in days");
  cli.add_flag("seed", "42", "generator seed");
  cli.add_flag("chunk", "16384", "files generated per chunk");
  cli.add_flag("groups", "false",
               "include co-request groups (whole-trace construct: forces "
               "in-memory generation)");
  cli.add_flag("out", "trace.mct", "output container");
  cli.add_flag("codec", "v1",
               "container codec: v1 (uncompressed version 1 layout) or a v2 "
               "chunk codec: raw | delta | zstd | delta+zstd");
  cli.add_flag("files-per-chunk", "1024", "files per v2 chunk");
  cli.add_flag("integral-counts", "false",
               "round the synthetic request counts to whole requests (what "
               "real count data looks like; lets the delta codec engage)");
  if (!cli.parse(argc, argv)) return 1;

  trace::SyntheticConfig config;
  config.file_count = static_cast<std::size_t>(cli.integer("files"));
  config.days = static_cast<std::size_t>(cli.integer("days"));
  config.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  config.integral_counts = cli.boolean("integral-counts");
  store::WriterOptions options;
  if (!writer_options_from_cli(cli, "generate", options)) return 1;

  if (cli.boolean("groups")) {
    store::pack_trace(trace::generate_synthetic(config), cli.str("out"),
                      options);
  } else {
    config.grouped_file_fraction = 0.0;
    store::TraceWriter writer(cli.str("out"), config.days, options);
    const auto chunk = static_cast<std::size_t>(cli.integer("chunk"));
    for (std::size_t first = 0; first < config.file_count; first += chunk) {
      const std::size_t count = std::min(chunk, config.file_count - first);
      for (const trace::FileRecord& f :
           trace::generate_synthetic_files(config, first, count))
        writer.add_file(f.name, f.size_gb, f.reads, f.writes);
    }
    writer.finish();
  }
  std::cout << "generated " << cli.str("files") << " files x "
            << cli.str("days") << " days into " << cli.str("out")
            << " (peak RSS " << util::format_double(peak_rss_mib(), 1)
            << " MiB)\n";
  return 0;
}

int cmd_eval(int argc, const char* const* argv) {
  util::Cli cli("tracepack eval",
                "bill a tiering policy shard-streamed over a .mct container");
  cli.add_flag("policy", "greedy", "hot | cold | greedy | optimal | mpc");
  cli.add_flag("shard-files", "65536", "files per shard (0 = one shard)");
  cli.add_flag("start", "0", "first billed day (default: last 35 days)");
  cli.add_flag("preset", "azure", "price preset");
  cli.add_flag("compare", "false",
               "also run the monolithic in-memory path and check the merged "
               "bill is byte-identical");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().empty()) {
    std::cerr << "eval: need a .mct file\n";
    return 1;
  }

  util::Stopwatch eval_watch;
  const store::TraceReader reader(cli.positional().front());
  const pricing::PricingPolicy prices = make_prices(cli.str("preset"));
  std::unique_ptr<core::TieringPolicy> policy = make_policy(cli.str("policy"));
  if (!policy) {
    std::cerr << "eval: unknown policy '" << cli.str("policy") << "'\n";
    return 1;
  }

  core::PlanDriverOptions options;
  options.shard_files = static_cast<std::size_t>(cli.integer("shard-files"));
  options.start_day =
      cli.integer("start") > 0
          ? static_cast<std::size_t>(cli.integer("start"))
          : (reader.days() > 35 ? reader.days() - 35 : 1);
  const core::PlanDriverRun sharded =
      core::PlanDriver(reader, prices, {policy.get()}, options).run().front();

  const auto& total = sharded.report.grand_total();
  util::Table bill({"component", "amount"});
  bill.add_row({"storage (Cs)", util::format_money(total.storage)});
  bill.add_row({"reads (Cr)", util::format_money(total.read)});
  bill.add_row({"writes (Cw)", util::format_money(total.write)});
  bill.add_row({"tier changes (Cc)", util::format_money(total.change)});
  bill.add_row({"total", util::format_money(total.total())});
  std::cout << sharded.policy_name << " over days " << options.start_day
            << ".." << reader.days() << " (" << prices.name() << ", "
            << sharded.shard_count << " shards):\n"
            << bill.to_string() << "tier changes: "
            << util::format_count(sharded.report.tier_changes())
            << ", decision time: "
            << util::format_double(sharded.decision_seconds, 2)
            << "s, peak RSS: " << util::format_double(peak_rss_mib(), 1)
            << " MiB\n";

  int exit_code = 0;
  bool compared_identical = true;
  // The comparison must not be able to lose the run report below: the
  // sharded numbers above are already measured, and a CI triage of a
  // comparison failure needs exactly that artifact. Any throw here (the
  // monolithic materialize is the one allocation-heavy step in this
  // command) downgrades to a failed comparison instead of propagating.
  if (cli.boolean("compare")) {
    try {
      const trace::RequestTrace tr = reader.materialize();
      core::PlanOptions mono;
      mono.start_day = options.start_day;
      mono.initial_tiers =
          core::static_initial_tiers(tr, prices, mono.start_day);
      const core::PlanResult reference =
          core::run_policy(tr, prices, *policy, mono);
      const auto& a = sharded.report.grand_total();
      const auto& b = reference.report.grand_total();
      bool identical = std::memcmp(&a, &b, sizeof a) == 0 &&
                       sharded.report.tier_changes() ==
                           reference.report.tier_changes();
      for (std::size_t f = 0; identical && f < tr.file_count(); ++f)
        identical =
            sharded.report.file_total(f) == reference.report.file_total(f);
      std::cout << "monolithic comparison: "
                << (identical ? "byte-identical" : "MISMATCH") << "\n";
      compared_identical = identical;
    } catch (const std::exception& error) {
      std::cerr << "eval: monolithic comparison failed: " << error.what()
                << "\n";
      compared_identical = false;
    }
    exit_code = compared_identical ? 0 : 1;
  }

  // Run report for the CI perf gate: eval wall time, decision time, and
  // every obs counter/timer this process touched (shard merge, trace I/O,
  // billing). Lands in MINICOST_OUT next to the bench reports.
  obs::RunReport report = obs::make_report("tracepack_eval");
  report.metrics.emplace_back("eval_seconds", eval_watch.seconds());
  report.metrics.emplace_back("decision_seconds", sharded.decision_seconds);
  report.metrics.emplace_back("shards",
                              static_cast<double>(sharded.shard_count));
  report.metrics.emplace_back("total_cost", total.total());
  if (cli.boolean("compare"))
    report.metrics.emplace_back("bills_identical",
                                compared_identical ? 1.0 : 0.0);
  const std::filesystem::path out_dir =
      util::env_str("MINICOST_OUT", "bench_out");
  std::cout << "[report] " << obs::write_report(report, out_dir).string()
            << "\n";
  return exit_code;
}

void usage() {
  std::cout << "tracepack <command> [flags]\n\ncommands:\n"
               "  pack      convert a CSV trace to a .mct container\n"
               "  unpack    expand a .mct container back to CSV\n"
               "  info      describe a .mct container\n"
               "  verify    full checksum scan\n"
               "  generate  stream a synthetic workload into a container\n"
               "  eval      bill a policy shard-streamed over a container\n"
               "\nrun `tracepack <command> --help` for per-command flags\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "pack") return cmd_pack(sub_argc, sub_argv);
    if (command == "unpack") return cmd_unpack(sub_argc, sub_argv);
    if (command == "info") return cmd_info(sub_argc, sub_argv);
    if (command == "verify") return cmd_verify(sub_argc, sub_argv);
    if (command == "generate") return cmd_generate(sub_argc, sub_argv);
    if (command == "eval") return cmd_eval(sub_argc, sub_argv);
  } catch (const std::exception& error) {
    std::cerr << "tracepack " << command << ": " << error.what() << "\n";
    return 1;
  }
  usage();
  return command == "--help" || command == "-h" ? 0 : 1;
}
