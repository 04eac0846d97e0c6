#pragma once

#include <vector>

#include "fp/fp64.hpp"

namespace hemul::ntt {

/// Fast in-place iterative radix-2 NTT (the conventional "binary recursive
/// splitting" the paper contrasts its higher-radix decomposition with; also
/// the library's fast software path for the SSA golden model).
///
/// The transform length is data.size(), a power of two <= 2^32. Roots are
/// derived internally via fp::aligned_root for lengths >= 64 (so results are
/// directly comparable with the mixed-radix engine) and fp::primitive_root
/// otherwise. Twiddle factors are stored contiguously per butterfly level
/// for cache-friendly streaming; the butterfly sweeps run on the redundant
/// representation of fp/kernels.hpp (AVX-512 when the build enables it) and
/// every public entry point returns canonical values.
///
/// Two families of entry points:
///   * forward()/inverse(): natural order in and out (golden-model API).
///   * the *_spectrum() set: "engine order" spectra -- the bit-reversed
///     layout the decimation-in-frequency sweep produces naturally. No
///     permutation passes run at all; engine-order spectra are only
///     meaningful to this engine's own pointwise/inverse path, which is
///     exactly how the SSA multiplier and ssa::SpectrumDomain use them.
class Radix2Ntt {
 public:
  /// Prepares twiddle tables for length n.
  explicit Radix2Ntt(u64 n);

  /// In-place forward transform (natural order in and out).
  void forward(fp::FpVec& data) const;

  /// In-place inverse transform (including the 1/N scaling).
  void inverse(fp::FpVec& data) const;

  /// In-place forward transform to engine-order (bit-reversed) spectrum.
  void forward_spectrum(fp::FpVec& data) const;

  /// In-place inverse from an engine-order spectrum to natural order,
  /// including the 1/N scaling.
  void inverse_from_spectrum(fp::FpVec& data) const;

  /// out = inverse(fa . fb) for two engine-order spectra (the cached-operand
  /// multiply path): pointwise product with 1/N folded in, then the inverse
  /// sweep. out is resized to n; fa and fb are untouched (out must not
  /// alias either).
  void convolve_from_spectra(fp::FpVec& out, const fp::FpVec& fa,
                             const fp::FpVec& fb) const;

  /// Cyclic convolution computed in place: a <- a (*) b; b is clobbered
  /// (scratch). No allocation beyond what the caller's buffers hold.
  void convolve_into(fp::FpVec& a, fp::FpVec& b) const;

  /// Cyclic self-convolution in place (one forward sweep instead of two).
  void convolve_square_into(fp::FpVec& a) const;

  /// Cyclic convolution of a and b (size n each); allocating wrapper over
  /// convolve_into.
  [[nodiscard]] fp::FpVec convolve(const fp::FpVec& a, const fp::FpVec& b) const;

  /// Cyclic self-convolution; allocating wrapper over convolve_square_into.
  [[nodiscard]] fp::FpVec convolve_square(const fp::FpVec& a) const;

  [[nodiscard]] u64 size() const noexcept { return n_; }

  /// The primitive root the tables were built from.
  [[nodiscard]] fp::Fp root() const noexcept { return root_; }

 private:
  /// DIT butterfly sweep; expects bit-reversed input, yields natural order.
  /// Values are redundant on exit (callers canonicalize).
  void dit_sweep(fp::FpVec& data, const std::vector<std::vector<fp::Fp>>& levels) const;
  /// DIF butterfly sweep; expects natural input, yields bit-reversed order.
  /// Values are redundant on exit (callers canonicalize).
  void dif_sweep(fp::FpVec& data, const std::vector<std::vector<fp::Fp>>& levels) const;
  void bit_reverse(fp::FpVec& data) const;

  u64 n_;
  fp::Fp root_;
  // levels[l] holds the len/2 twiddles of the level with len = 2^(l+1),
  // contiguously: w^(j * n/len) for j in [0, len/2).
  std::vector<std::vector<fp::Fp>> fwd_levels_;
  std::vector<std::vector<fp::Fp>> inv_levels_;
  fp::Fp n_inv_;
};

/// Process-wide engine cache: building twiddle tables costs ~n field
/// multiplications, which matters when many same-size multiplications run
/// back to back (e.g. FHE workloads). Lookups are lock-free (an atomic
/// walk over immutable, intentionally process-lifetime nodes), so scheduler
/// lanes hitting the cache concurrently never contend; only the first
/// construction of a new size takes a mutex.
const Radix2Ntt& shared_radix2(u64 n);

}  // namespace hemul::ntt
