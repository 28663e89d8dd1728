#include "core/optimal.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "sim/cost_model.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kT = pricing::kTierCount;
/// Files per prepare() work item; fixed so the split never depends on the
/// pool size.
constexpr std::size_t kOptimalChunkFiles = 256;

/// The per-file DP behind optimal_sequence and OptimalPolicy::prepare.
/// Writes day t's tier to tiers[t * stride] and returns the minimal cost;
/// `parent` is caller-owned scratch (resized here). The file's Eq. 6-8
/// rates and the Γ×Γ change prices are hoisted out of the day loop; each
/// day cost is still file_day_cost_no_change's CostBreakdown total, and
/// each transition the same change_cost value, so the result is
/// bit-identical to pricing every (day, tier) through those calls. The
/// window must already be validated.
double solve_optimal(const pricing::PricingPolicy& pricing,
                     const trace::FileRecord& file, std::size_t start_day,
                     std::size_t end_day, pricing::StorageTier initial,
                     bool charge_initial, pricing::StorageTier* tiers,
                     std::size_t stride,
                     std::vector<std::array<std::uint8_t, kT>>& parent) {
  const std::size_t days = end_day - start_day;
  const double gb = file.size_gb;
  std::array<sim::FileTierRates, kT> rates;
  std::array<std::array<double, kT>, kT> change;  // [from][to]
  for (std::size_t j = 0; j < kT; ++j) {
    const auto tier = pricing::tier_from_index(j);
    rates[j] = sim::file_tier_rates(pricing, tier, gb);
    for (std::size_t i = 0; i < kT; ++i)
      change[i][j] = pricing.change_cost(pricing::tier_from_index(i), tier, gb);
  }
  const auto day_cost = [&](std::size_t j, std::size_t day) {
    return sim::CostBreakdown{rates[j].storage, file.reads[day] * rates[j].read,
                              file.writes[day] * rates[j].write, 0.0}
        .total();
  };

  // dp[j]: cheapest cost of days [start, start+t] ending in tier j.
  parent.resize(days);
  std::array<double, kT> dp;
  const std::size_t from = pricing::tier_index(initial);
  for (std::size_t j = 0; j < kT; ++j) {
    double cost = day_cost(j, start_day);
    if (charge_initial) cost += change[from][j];
    dp[j] = cost;
    parent[0][j] = 0;
  }

  for (std::size_t t = 1; t < days; ++t) {
    const std::size_t day = start_day + t;
    std::array<double, kT> next;
    for (std::size_t j = 0; j < kT; ++j) {
      double best = kInf;
      std::uint8_t best_parent = 0;
      for (std::size_t i = 0; i < kT; ++i) {
        const double candidate = dp[i] + change[i][j];
        if (candidate < best) {
          best = candidate;
          best_parent = static_cast<std::uint8_t>(i);
        }
      }
      next[j] = best + day_cost(j, day);
      parent[t][j] = best_parent;
    }
    dp = next;
  }

  // Backtrack from the cheapest terminal tier.
  std::size_t j = 0;
  double cost = kInf;
  for (std::size_t k = 0; k < kT; ++k) {
    if (dp[k] < cost) {
      cost = dp[k];
      j = k;
    }
  }
  for (std::size_t t = days; t-- > 0;) {
    tiers[t * stride] = pricing::tier_from_index(j);
    j = parent[t][j];
  }
  return cost;
}

}  // namespace

OptimalSequence optimal_sequence(const pricing::PricingPolicy& pricing,
                                 const trace::FileRecord& file,
                                 std::size_t start_day, std::size_t end_day,
                                 pricing::StorageTier initial,
                                 bool charge_initial) {
  if (start_day >= end_day || end_day > file.reads.size())
    throw std::invalid_argument("optimal_sequence: bad day window");
  OptimalSequence result;
  result.tiers.resize(end_day - start_day);
  std::vector<std::array<std::uint8_t, kT>> parent;
  result.cost = solve_optimal(pricing, file, start_day, end_day, initial,
                              charge_initial, result.tiers.data(), 1, parent);
  return result;
}

OptimalSequence exhaustive_sequence(const pricing::PricingPolicy& pricing,
                                    const trace::FileRecord& file,
                                    std::size_t start_day, std::size_t end_day,
                                    pricing::StorageTier initial,
                                    bool charge_initial) {
  if (start_day >= end_day || end_day > file.reads.size())
    throw std::invalid_argument("exhaustive_sequence: bad day window");
  const std::size_t days = end_day - start_day;
  if (days > 12)
    throw std::invalid_argument(
        "exhaustive_sequence: window too long for brute force");

  std::size_t combos = 1;
  for (std::size_t t = 0; t < days; ++t) combos *= kT;

  OptimalSequence best;
  best.cost = kInf;
  std::vector<pricing::StorageTier> tiers(days);
  for (std::size_t code = 0; code < combos; ++code) {
    std::size_t rest = code;
    for (std::size_t t = 0; t < days; ++t) {
      tiers[t] = pricing::tier_from_index(rest % kT);
      rest /= kT;
    }
    double cost = 0.0;
    pricing::StorageTier previous = initial;
    for (std::size_t t = 0; t < days; ++t) {
      const std::size_t day = start_day + t;
      cost += sim::file_day_cost_no_change(pricing, tiers[t], file.reads[day],
                                           file.writes[day], file.size_gb)
                  .total();
      if (tiers[t] != previous && (t > 0 || charge_initial))
        cost += pricing.change_cost(previous, tiers[t], file.size_gb);
      previous = tiers[t];
    }
    if (cost < best.cost) {
      best.cost = cost;
      best.tiers = tiers;
    }
  }
  return best;
}

void OptimalPolicy::prepare(const PlanContext& context) {
  if (context.start_day >= context.end_day ||
      context.end_day > context.trace.days())
    throw std::invalid_argument("OptimalPolicy::prepare: bad day window");
  start_day_ = context.start_day;
  window_ = context.end_day - context.start_day;
  file_count_ = context.trace.file_count();
  const std::size_t n = file_count_;
  // Day-major: decide_day(day) is one contiguous row.
  plan_.assign(window_ * n, pricing::StorageTier::kHot);
  std::vector<double> costs(n, 0.0);
  const auto solve_chunk = [&](std::size_t c) {
    const std::size_t lo = c * kOptimalChunkFiles;
    const std::size_t hi = std::min(n, lo + kOptimalChunkFiles);
    std::vector<std::array<std::uint8_t, kT>> parent;
    for (std::size_t i = lo; i < hi; ++i)
      costs[i] = solve_optimal(
          context.pricing, context.trace.file(static_cast<trace::FileId>(i)),
          context.start_day, context.end_day, context.initial_tiers[i],
          charge_initial_, plan_.data() + i, n, parent);
  };
  const std::size_t chunk_count =
      (n + kOptimalChunkFiles - 1) / kOptimalChunkFiles;
  plan_pool(context).parallel_for(0, chunk_count, solve_chunk);
  planned_cost_ = 0.0;
  for (double c : costs) planned_cost_ += c;
}

pricing::StorageTier OptimalPolicy::decide(const PlanContext&,
                                           trace::FileId file, std::size_t day,
                                           pricing::StorageTier) {
  if (file >= file_count_ || day < start_day_ || day - start_day_ >= window_)
    throw std::out_of_range("OptimalPolicy::decide: outside prepared window");
  return plan_[(day - start_day_) * file_count_ + file];
}

void OptimalPolicy::decide_day(const PlanContext& context, std::size_t day,
                               std::span<const pricing::StorageTier> current,
                               std::span<pricing::StorageTier> out_plan) {
  check_batch_widths(context, current, out_plan);
  if (out_plan.size() != file_count_ || day < start_day_ ||
      day - start_day_ >= window_)
    throw std::out_of_range(
        "OptimalPolicy::decide_day: day outside prepared window");
  const auto row = plan_.begin() + static_cast<std::ptrdiff_t>(
                                       (day - start_day_) * file_count_);
  std::copy(row, row + static_cast<std::ptrdiff_t>(file_count_),
            out_plan.begin());
}

}  // namespace minicost::core
