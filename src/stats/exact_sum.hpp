#pragma once
// Order-independent exact accumulation of doubles (a fixed-point
// "superaccumulator", in the spirit of reproducible-BLAS summation).
//
// Floating-point addition is not associative, so two runs that sum the same
// multiset of charges in different orders — serial vs sharded, one merge
// grouping vs another — generally disagree in the last bits. ExactSum removes
// the order from the answer: every added double is decomposed exactly into a
// wide fixed-point accumulator (32-bit limbs spanning the full binary64
// exponent range), where integer addition is associative and commutative.
// value() rounds the exact fixed-point sum to the nearest double (ties to
// even), so for any grouping, ordering, or partitioning of the same addends
//
//     value() == round_to_nearest(exact real sum)   — byte-identical.
//
// This is what lets a shard-streamed evaluation merge per-shard
// BillingReports into a bill byte-identical to the monolithic in-RAM path
// for every shard size (DESIGN.md §9).
//
// Costs: ~544 bytes of state; add(double) is a handful of ALU ops (no
// branches on magnitude, no tables) and is inline, because the billing
// kernel makes four of them per file-day; add(ExactSum) merges exactly.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace minicost::stats {

class ExactSum {
 public:
  ExactSum() noexcept { reset(); }

  /// Adds one finite double to the exact sum. Throws std::invalid_argument
  /// on NaN or infinity (a bill must stay finite; feeding one non-finite
  /// charge would silently poison every later total).
  void add(double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t biased = (bits >> 52) & 0x7FF;
    if (biased == 0x7FF) reject_non_finite();
    // ±0 contributes nothing (and has no mantissa bits).
    if ((bits << 1) == 0) return;

    const std::uint64_t fraction = bits & ((1ULL << 52) - 1);
    // x = ± m * 2^(e) with m < 2^53; subnormals (biased == 0) share the
    // exponent of the smallest normal. Bit position 0 of the accumulator
    // weighs 2^-1074, so m's least bit lands at position p >= 0.
    const std::uint64_t m = biased == 0 ? fraction : fraction | (1ULL << 52);
    const std::uint64_t p = (biased == 0 ? 1 : biased) - 1;  // == e + 1074

    const std::size_t limb = p >> 5;
    const std::uint64_t shift = p & 31;
    // m << shift spans up to 84 bits; split it over three 32-bit limbs.
    const std::uint64_t low = m << shift;                       // bits 0..63
    const std::uint64_t high = shift == 0 ? 0 : m >> (64 - shift);  // 64..
    const auto c0 = static_cast<std::int64_t>(low & 0xFFFFFFFFULL);
    const auto c1 = static_cast<std::int64_t>(low >> 32);
    const auto c2 = static_cast<std::int64_t>(high);
    if ((bits >> 63) != 0) {
      limbs_[limb] -= c0;
      limbs_[limb + 1] -= c1;
      limbs_[limb + 2] -= c2;
    } else {
      limbs_[limb] += c0;
      limbs_[limb + 1] += c1;
      limbs_[limb + 2] += c2;
    }
    if (++pending_ >= kMaxPending) normalize();
  }

  /// Adds another accumulator's exact sum (associative and exact, so any
  /// merge tree over the same addends yields the same state).
  void add(const ExactSum& other) noexcept;

  /// The exact sum rounded to the nearest double, ties to even. Independent
  /// of the order in which addends and merges arrived.
  double value() const noexcept;

  void reset() noexcept {
    limbs_.fill(0);
    pending_ = 0;
  }

 private:
  // 32-bit limbs in int64 slots, base 2^32, little-endian: limb i covers
  // absolute bit positions [32i, 32i+32) where bit 0 weighs 2^-1074 (the
  // least subnormal). The largest finite double's top mantissa bit sits at
  // position 2097 (limb 65); two extra limbs absorb carries and sign.
  static constexpr std::size_t kLimbs = 68;
  // A single add() deposits < 2^32 into each of three adjacent limbs, so a
  // limb stays within int64 for 2^29 adds between carry propagations.
  static constexpr std::uint32_t kMaxPending = 1u << 29;

  void normalize() const noexcept;
  [[noreturn]] static void reject_non_finite();

  mutable std::array<std::int64_t, kLimbs> limbs_;
  mutable std::uint32_t pending_ = 0;
};

}  // namespace minicost::stats
