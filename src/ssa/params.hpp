#pragma once

#include <cstddef>

#include "fp/fp64.hpp"

namespace hemul::ssa {

/// Transform length at which the four-step path beats the monolithic
/// radix-2 sweep on this codebase's kernels. The win is not (primarily)
/// cache blocking: the vector-parallel sub-transforms replace the scalar
/// small-half butterfly levels that dominate the monolithic sweep with
/// full-width SIMD passes, which pays off from tiny sizes (measured 3-8x
/// for 64 <= N <= 128K on an AVX-512 host; see README "Software NTT fast
/// path"). Below 64 the matrix lanes are narrower than a vector and the
/// extra corner-turn loses, so the radix-2 sweep runs there.
inline constexpr u64 kFourStepMinTransform = 64;

/// Parameters of one Schonhage-Strassen multiplication instance.
///
/// The paper's setting: 786,432-bit operands split into 32K coefficients of
/// m = 24 bits, transformed with a 64K-point NTT (the extra 2x headroom
/// holds the full acyclic product). Exactness requires every convolution
/// coefficient to stay below p:
///     num_coeffs * (2^m - 1)^2 < p,
/// which holds with 2^15 * (2^24 - 1)^2 < 2^63 < p.
struct SsaParams {
  std::size_t coeff_bits = 0;  ///< m: bits per polynomial coefficient
  u64 num_coeffs = 0;          ///< operand coefficients (before padding)
  u64 transform_size = 0;      ///< N: NTT length, power of two >= 2*num_coeffs

  /// The paper's configuration: 786,432-bit operands, m = 24, N = 64K.
  static SsaParams paper();

  /// Chooses the largest exact coefficient width for the given operand size
  /// and a matching power-of-two transform length. `headroom_bits` tightens
  /// the exactness bound to num_coeffs * (2^m - 1)^2 < p / 2^headroom_bits,
  /// leaving room for up to 2^headroom_bits product spectra to accumulate
  /// pointwise before any coefficient can reach p (the spectrum-resident
  /// XOR sweep's lazy-reduction budget). headroom_bits == 0 reproduces the
  /// plain exactness choice. Throws std::invalid_argument if
  /// operand_bits == 0.
  static SsaParams for_bits(std::size_t operand_bits, unsigned headroom_bits = 0);

  /// Does the transform run as the four-step cache-blocked engine (true)
  /// or the radix-2 sweep (false)? Decided by transform_size alone, so
  /// every consumer (multiply_into, SpectrumDomain) resolves the same
  /// engine for the same parameterization.
  [[nodiscard]] bool use_four_step() const noexcept {
    return transform_size >= kFourStepMinTransform;
  }

  /// Maximum operand size this instance can multiply exactly.
  [[nodiscard]] std::size_t max_operand_bits() const noexcept {
    return coeff_bits * static_cast<std::size_t>(num_coeffs);
  }

  /// Verifies the exactness and padding conditions; throws std::logic_error
  /// on violation.
  void validate() const;
};

}  // namespace hemul::ssa
