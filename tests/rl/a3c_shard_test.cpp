// Multi-worker training contract tests (DESIGN.md §14):
//   * the final parameters are a pure function of (seed, episode count,
//     worker window) — run-to-run deterministic even with many workers
//     (tests/rl/param_server_test.cpp pins the schedule itself);
//   * episode RNG streams derive only from the lifetime ordinal and can
//     never alias the agent's other stream families.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <unistd.h>

#include "rl/a3c.hpp"
#include "rl/stream.hpp"
#include "trace/synthetic.hpp"

namespace minicost::rl {
namespace {

trace::RequestTrace small_trace(std::size_t files = 60) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = 62;
  config.seed = 12;
  return trace::generate_synthetic(config);
}

A3CConfig small_config(std::size_t workers) {
  A3CConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.workers = workers;
  return config;
}

std::string train_and_serialize(const A3CConfig& config, std::uint64_t seed,
                                std::size_t episodes, const char* tag) {
  A3CAgent agent(config, seed);
  const trace::RequestTrace trace = small_trace();
  TrainOptions options;
  options.episodes = episodes;
  options.report_every = episodes;
  agent.train(trace, pricing::PricingPolicy::azure_2020(), options);
  const auto path = std::filesystem::temp_directory_path() /
                    ("minicost_shard_" + std::to_string(::getpid()) + "_" +
                     tag + ".txt");
  agent.save(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

TEST(A3CShardTest, MultiWorkerTrainingIsRunToRunDeterministic) {
  // The wavefront protocol makes multi-worker training reproducible, not
  // just single-worker: thread timing never picks which parameters an
  // episode reads or which stream it draws from.
  const std::string first =
      train_and_serialize(small_config(8), 23, 150, "r1");
  const std::string second =
      train_and_serialize(small_config(8), 23, 150, "r2");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(A3CStreamTest, EpisodeStreamsAreInjective) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t ordinal = 0; ordinal < 4096; ++ordinal)
    seen.insert(episode_stream(ordinal));
  EXPECT_EQ(seen.size(), 4096u);
  // Worker/shard reconfiguration cannot re-deal streams: the derivation has
  // no other inputs, so equal ordinals map to equal streams...
  EXPECT_EQ(episode_stream(7), episode_stream(7));
  // ...and distant ordinals (different train() calls, different rounds)
  // stay distinct.
  EXPECT_NE(episode_stream(0), episode_stream(1'000'000));
}

TEST(A3CStreamTest, EpisodeStreamsNeverAliasLegacyFamilies) {
  // The legacy families move with runtime counters (env steps, racing
  // candidates); even extreme counter values stay below the tag byte.
  const std::uint64_t huge_counter = 1ULL << 40;
  EXPECT_EQ((kActStreamBase + huge_counter) >> 56, 0u);
  EXPECT_EQ((kRacingStreamBase + huge_counter) >> 56, 0u);
  EXPECT_EQ(kInitStream >> 56, 0u);
  for (std::uint64_t ordinal : {std::uint64_t{0}, std::uint64_t{1} << 32,
                                (std::uint64_t{1} << 56) - 1}) {
    EXPECT_EQ(episode_stream(ordinal) >> 56, kEpisodeStreamTag)
        << "ordinal " << ordinal;
  }
}

}  // namespace
}  // namespace minicost::rl
