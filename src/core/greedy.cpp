#include "core/greedy.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "sim/cost_model.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

/// Files per decide_day work item; fixed so the split never depends on the
/// pool size.
constexpr std::size_t kGreedyChunkFiles = 1024;
/// Every file's series is its own heap block, so each file costs a cache
/// miss per series; the kernel prefetches the observed day of the file
/// this far ahead (measured best of 4/8/16/32 on the 30k-file bench store).
constexpr std::size_t kPrefetchFiles = 32;

/// Prices every allowed tier through file_day_cost; decide() and the batched
/// kernel both call it.
pricing::StorageTier cheapest_for_day(const PlanContext& context,
                                      const trace::FileRecord& f,
                                      double reads, double writes,
                                      pricing::StorageTier current,
                                      bool include_archive) {
  pricing::StorageTier best = current;
  double best_cost = std::numeric_limits<double>::infinity();
  for (pricing::StorageTier t : pricing::all_tiers()) {
    if (!include_archive && t == pricing::StorageTier::kArchive &&
        current != pricing::StorageTier::kArchive) {
      continue;  // 2-tier greedy never moves a file INTO archive
    }
    const double cost =
        sim::file_day_cost(context.pricing, t, current, reads, writes, f.size_gb)
            .total();
    if (cost < best_cost) {
      best_cost = cost;
      best = t;
    }
  }
  return best;
}

/// The batched kernel both variants share: every file of the day priced on
/// day `observed`'s frequencies by cheapest_for_day, in kGreedyChunkFiles
/// chunks over the pool — so each decision is the scalar decide()'s.
void decide_greedy_day(const PlanContext& context, std::size_t observed,
                       std::span<const pricing::StorageTier> current,
                       std::span<pricing::StorageTier> out_plan,
                       bool include_archive) {
  check_batch_widths(context, current, out_plan);
  const std::vector<trace::FileRecord>& files = context.trace.files();
  const std::size_t n = out_plan.size();
  const auto decide_chunk = [&](std::size_t c) {
    const std::size_t lo = c * kGreedyChunkFiles;
    const std::size_t hi = std::min(n, lo + kGreedyChunkFiles);
    for (std::size_t i = lo; i < hi; ++i) {
      if (i + kPrefetchFiles < hi) {
        const trace::FileRecord& ahead = files[i + kPrefetchFiles];
        __builtin_prefetch(ahead.reads.data() + observed);
        __builtin_prefetch(ahead.writes.data() + observed);
      }
      const trace::FileRecord& f = files[i];
      out_plan[i] = cheapest_for_day(context, f, f.reads[observed],
                                     f.writes[observed], current[i],
                                     include_archive);
    }
  };
  const std::size_t chunk_count =
      (n + kGreedyChunkFiles - 1) / kGreedyChunkFiles;
  util::ThreadPool& pool = plan_pool(context);
  if (pool.size() > 1 && chunk_count > 1) {
    pool.parallel_for(0, chunk_count, decide_chunk);
  } else {
    for (std::size_t c = 0; c < chunk_count; ++c) decide_chunk(c);
  }
}

/// Online Greedy prices the coming day with the most recent observation.
std::size_t observed_day(std::size_t day) noexcept {
  return day > 0 ? day - 1 : 0;
}

}  // namespace

pricing::StorageTier GreedyPolicy::decide(const PlanContext& context,
                                          trace::FileId file, std::size_t day,
                                          pricing::StorageTier current) {
  const trace::FileRecord& f = context.trace.file(file);
  const std::size_t observed = observed_day(day);
  return cheapest_for_day(context, f, f.reads[observed], f.writes[observed],
                          current, include_archive_);
}

void GreedyPolicy::decide_day(const PlanContext& context, std::size_t day,
                              std::span<const pricing::StorageTier> current,
                              std::span<pricing::StorageTier> out_plan) {
  decide_greedy_day(context, observed_day(day), current, out_plan,
                    include_archive_);
}

pricing::StorageTier ClairvoyantGreedyPolicy::decide(
    const PlanContext& context, trace::FileId file, std::size_t day,
    pricing::StorageTier current) {
  const trace::FileRecord& f = context.trace.file(file);
  return cheapest_for_day(context, f, f.reads[day], f.writes[day], current,
                          include_archive_);
}

void ClairvoyantGreedyPolicy::decide_day(
    const PlanContext& context, std::size_t day,
    std::span<const pricing::StorageTier> current,
    std::span<pricing::StorageTier> out_plan) {
  decide_greedy_day(context, day, current, out_plan, include_archive_);
}

}  // namespace minicost::core
