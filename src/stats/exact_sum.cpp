#include "stats/exact_sum.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace minicost::stats {
namespace {

constexpr std::uint64_t kLimbMask = 0xFFFFFFFFULL;

}  // namespace

void ExactSum::reject_non_finite() {
  throw std::invalid_argument("ExactSum::add: non-finite addend");
}

void ExactSum::add(const ExactSum& other) noexcept {
  // Every limb below the top one stays under (pending_ + 1) * 2^32 in
  // magnitude, so two states add limb-wise without a carry pass until their
  // combined count would reach kMaxPending.
  if (std::uint64_t{pending_} + other.pending_ + 1 >= kMaxPending) {
    normalize();
    other.normalize();
  }
  for (std::size_t i = 0; i < kLimbs; ++i) limbs_[i] += other.limbs_[i];
  pending_ += other.pending_ + 1;
}

void ExactSum::normalize() const noexcept {
  // Floored carry propagation: every limb ends in [0, 2^32) except the top
  // one, which keeps the (possibly negative) overall carry and thus the sign
  // of the whole sum.
  std::int64_t carry = 0;
  for (std::size_t i = 0; i + 1 < kLimbs; ++i) {
    const std::int64_t v = limbs_[i] + carry;
    const std::int64_t r = v & static_cast<std::int64_t>(kLimbMask);
    carry = (v - r) >> 32;
    limbs_[i] = r;
  }
  limbs_[kLimbs - 1] += carry;
  pending_ = 0;
}

double ExactSum::value() const noexcept {
  normalize();

  // Sign and magnitude: if the top (signed) limb is negative the exact sum
  // is negative; re-normalizing the negated limbs yields its magnitude.
  std::array<std::int64_t, kLimbs> mag = limbs_;
  const bool negative = mag[kLimbs - 1] < 0;
  if (negative) {
    std::int64_t carry = 0;
    for (std::size_t i = 0; i + 1 < kLimbs; ++i) {
      const std::int64_t v = -mag[i] + carry;
      const std::int64_t r = v & static_cast<std::int64_t>(kLimbMask);
      carry = (v - r) >> 32;
      mag[i] = r;
    }
    mag[kLimbs - 1] = -mag[kLimbs - 1] + carry;
  }

  std::size_t top = kLimbs;
  while (top > 0 && mag[top - 1] == 0) --top;
  if (top == 0) return 0.0;

  // Absolute index of the highest set bit: value in [2^B, 2^(B+1)).
  const auto top_limb = static_cast<std::uint64_t>(mag[top - 1]);
  const std::size_t B =
      32 * (top - 1) + static_cast<std::size_t>(std::bit_width(top_limb)) - 1;

  const auto bit_at = [&](std::size_t pos) -> std::uint64_t {
    return (static_cast<std::uint64_t>(mag[pos >> 5]) >> (pos & 31)) & 1ULL;
  };

  if (B < 53) {
    // Fewer than 54 significant bits: the sum is an exactly representable
    // (possibly subnormal) double; no rounding happens.
    std::uint64_t m = 0;
    for (std::size_t pos = 0; pos <= B; ++pos) m |= bit_at(pos) << pos;
    const double r = std::ldexp(static_cast<double>(m), -1074);
    return negative ? -r : r;
  }

  // 53-bit mantissa [lo, B], round bit lo-1, sticky = any bit below that.
  const std::size_t lo = B - 52;
  std::uint64_t m = 0;
  for (std::size_t k = 0; k < 53; ++k) m |= bit_at(lo + k) << k;
  const bool round_bit = bit_at(lo - 1) != 0;
  bool sticky = false;
  for (std::size_t limb = 0; limb < ((lo - 1) >> 5) && !sticky; ++limb)
    sticky = mag[limb] != 0;
  for (std::size_t pos = ((lo - 1) >> 5) << 5; pos + 1 < lo && !sticky; ++pos)
    sticky = bit_at(pos) != 0;

  std::int64_t exp = static_cast<std::int64_t>(lo) - 1074;
  if (round_bit && (sticky || (m & 1ULL) != 0)) {
    if (++m == (1ULL << 53)) {
      m = 1ULL << 52;
      ++exp;
    }
  }
  // B >= 53 puts the result at or above 2^-1021, i.e. in the normal range,
  // so ldexp introduces no second rounding (overflow to ±inf is the correct
  // IEEE outcome for sums beyond the finite range).
  const double r = std::ldexp(static_cast<double>(m), static_cast<int>(exp));
  return negative ? -r : r;
}

}  // namespace minicost::stats
