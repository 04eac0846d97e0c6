#pragma once

#include <functional>

#include "bigint/biguint.hpp"

namespace hemul::bigint {

/// Barrett modular reduction (HAC 14.42): after a one-time precomputation
/// of mu = floor(b^2k / m), every reduction of an x < m^2 costs two big
/// multiplications and no division.
///
/// This is how the paper's accelerator serves complete HE primitives
/// (Section III: other operations "can either be reduced to a combination
/// of multiplications"; the related design [32] pairs its FFT multiplier
/// with exactly such a Barrett module). The multiplication backend is
/// pluggable, so modular exponentiation can run its inner products on the
/// simulated accelerator.
class BarrettReducer {
 public:
  using MulFn = std::function<BigUInt(const BigUInt&, const BigUInt&)>;

  /// Precomputes mu for the given odd-or-even modulus m >= 2.
  /// Throws std::invalid_argument for m < 2.
  explicit BarrettReducer(BigUInt modulus);

  /// x mod m for any x < m^2 (checked). Two multiplications, no division.
  [[nodiscard]] BigUInt reduce(const BigUInt& x) const;

  /// (a * b) mod m for a, b < m.
  [[nodiscard]] BigUInt mod_mul(const BigUInt& a, const BigUInt& b) const;

  /// a^e mod m by square-and-multiply (left-to-right).
  [[nodiscard]] BigUInt mod_pow(const BigUInt& a, const BigUInt& e) const;

  /// Replaces the multiplication backend (default: mul_auto).
  void set_multiplier(MulFn mul) { mul_ = std::move(mul); }

  [[nodiscard]] const BigUInt& modulus() const noexcept { return m_; }
  [[nodiscard]] const BigUInt& mu() const noexcept { return mu_; }

  /// Count of backend multiplications issued (for the cost accounting:
  /// each is an accelerator invocation).
  [[nodiscard]] u64 multiplications_used() const noexcept { return mults_; }

 private:
  BigUInt m_;
  BigUInt mu_;       ///< floor(2^(128k) / m), k = limb count of m
  BigUInt m_squared_;  ///< m^2, the input bound reduce() checks in O(n)
  std::size_t k_;    ///< limbs in m
  MulFn mul_;
  mutable u64 mults_ = 0;
};

}  // namespace hemul::bigint
