#include "stats/exact_sum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace minicost::stats {
namespace {

double sum_in_order(const std::vector<double>& xs) {
  ExactSum s;
  for (double x : xs) s.add(x);
  return s.value();
}

TEST(ExactSumTest, EmptyIsZero) {
  ExactSum s;
  EXPECT_EQ(s.value(), 0.0);
}

TEST(ExactSumTest, SmallExactCases) {
  ExactSum s;
  s.add(1.0);
  s.add(2.0);
  s.add(0.5);
  EXPECT_EQ(s.value(), 3.5);
  s.add(-3.5);
  EXPECT_EQ(s.value(), 0.0);
  s.add(-1.25);
  EXPECT_EQ(s.value(), -1.25);
}

TEST(ExactSumTest, ExactCancellationAcrossMagnitudes) {
  // 1e16 + 1 - 1e16 loses the 1 in plain double arithmetic (1e16 + 1 rounds
  // back to 1e16); the exact accumulator keeps it.
  ExactSum s;
  s.add(1e16);
  s.add(1.0);
  s.add(-1e16);
  EXPECT_EQ(s.value(), 1.0);
}

TEST(ExactSumTest, ExtremeMagnitudesAndSubnormals) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  ExactSum s;
  s.add(huge);
  s.add(tiny);
  s.add(-huge);
  EXPECT_EQ(s.value(), tiny);

  ExactSum t;
  t.add(tiny);
  t.add(tiny);
  t.add(-tiny);
  EXPECT_EQ(t.value(), tiny);
}

TEST(ExactSumTest, RoundsToNearestEven) {
  // 2^53 is the first integer whose successor is not representable:
  // 2^53 + 1 must round to 2^53 (even), 2^53 + 3 to 2^53 + 4.
  const double p53 = std::ldexp(1.0, 53);
  ExactSum s;
  s.add(p53);
  s.add(1.0);
  EXPECT_EQ(s.value(), p53);
  ExactSum t;
  t.add(p53);
  t.add(3.0);
  EXPECT_EQ(t.value(), p53 + 4.0);
  // Sticky bit: 2^53 + 1 + 2^-60 is strictly above the midpoint, so it must
  // round up even though the round bit alone says "tie".
  ExactSum u;
  u.add(p53);
  u.add(1.0);
  u.add(std::ldexp(1.0, -60));
  EXPECT_EQ(u.value(), p53 + 2.0);
}

TEST(ExactSumTest, RejectsNonFinite) {
  ExactSum s;
  EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(ExactSumTest, OrderAndPartitionInvariance) {
  util::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    // Adversarial spread: magnitudes across ~600 orders, both signs.
    const double mag = std::ldexp(rng.next_double() + 0.5,
                                  static_cast<int>(rng.uniform_int(-300, 300)));
    xs.push_back(rng.bernoulli(0.5) ? mag : -mag);
  }
  const double reference = sum_in_order(xs);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> shuffled = xs;
    rng.shuffle(shuffled);
    EXPECT_EQ(sum_in_order(shuffled), reference) << "trial " << trial;

    // Random partition into contiguous shards, each summed independently,
    // merged with add(ExactSum) — the shard-streamed billing pattern.
    ExactSum merged;
    std::size_t begin = 0;
    while (begin < shuffled.size()) {
      const auto len = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(shuffled.size() - begin)));
      ExactSum shard;
      for (std::size_t i = begin; i < begin + len; ++i) shard.add(shuffled[i]);
      merged.add(shard);
      begin += len;
    }
    EXPECT_EQ(merged.value(), reference) << "partition trial " << trial;
  }
}

TEST(ExactSumTest, MatchesLongDoubleOnModerateRange) {
  // With addends confined to a few orders of magnitude, an 80-bit long
  // double fold is itself exact enough to be the correctly rounded sum.
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> xs;
    long double ref = 0.0L;
    for (int i = 0; i < 200; ++i) {
      const double x = rng.uniform(0.0, 1000.0);
      xs.push_back(x);
      ref += static_cast<long double>(x);
    }
    EXPECT_EQ(sum_in_order(xs), static_cast<double>(ref)) << "trial " << trial;
  }
}

TEST(ExactSumTest, ManyAddsTriggerCarryPropagation) {
  // 2^20 equal addends exercise the pending-carry path deterministically
  // (the threshold itself is too large to hit in a unit test's budget, but
  // interleaved value() calls force normalization mid-stream).
  ExactSum s;
  double expected = 0.0;
  for (int i = 0; i < (1 << 20); ++i) {
    s.add(0.125);
    if ((i & 0xFFFF) == 0) (void)s.value();
  }
  expected = 0.125 * (1 << 20);
  EXPECT_EQ(s.value(), expected);
}

TEST(ExactSumTest, MergesWithoutCarryingUntilThePendingBound) {
  // Merges add limbs without a carry pass while the combined pending count
  // stays under the bound. Merging a state into itself doubles both the sum
  // and the count, so 40 self-merges cross the 2^29 bound (and normalize)
  // while the sum stays exactly x * 2^40; negative and mixed-sign limbs ride
  // along through -x.
  for (const double x : {0.1, -0.1, 3.0e-300, 1.0 / 3.0}) {
    ExactSum s;
    s.add(x);
    s.add(-x / 4);
    for (int i = 0; i < 40; ++i) s.add(s);
    EXPECT_EQ(s.value(), std::ldexp(x - x / 4, 40)) << x;
  }
  // Merging fresh states with many pending adds, as the billing kernel does
  // with chunk-local reports, must equal one accumulator fed everything.
  ExactSum whole, merged;
  for (int part = 0; part < 8; ++part) {
    ExactSum local;
    for (int i = 0; i < 1000; ++i) {
      const double v = (part % 2 == 0 ? 1.0 : -1.0) * (0.3 + i) * std::ldexp(1.0, part * 7);
      local.add(v);
      whole.add(v);
    }
    merged.add(local);
  }
  EXPECT_EQ(merged.value(), whole.value());
}

TEST(ExactSumTest, ResetClears) {
  ExactSum s;
  s.add(42.0);
  s.reset();
  EXPECT_EQ(s.value(), 0.0);
  s.add(-1.5);
  EXPECT_EQ(s.value(), -1.5);
}

}  // namespace
}  // namespace minicost::stats
