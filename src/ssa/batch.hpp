#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bigint/biguint.hpp"
#include "fp/fp64.hpp"
#include "ssa/multiply.hpp"

namespace hemul::ssa {

/// Transform accounting of one batched multiplication run.
struct BatchStats {
  u64 jobs = 0;
  u64 forward_transforms = 0;   ///< forward NTTs actually executed
  u64 inverse_transforms = 0;   ///< one per nonzero product
  u64 spectrum_cache_hits = 0;  ///< forward NTTs avoided by the cache

  /// Transforms actually run -- the cache-aware replacement for the naive
  /// 3-per-product count (cached operands skip their forward transform,
  /// and the stats say so).
  [[nodiscard]] u64 transform_count() const noexcept {
    return forward_transforms + inverse_transforms;
  }
};

/// Batch-scoped spectrum provider shared by the software and the
/// simulated-hardware batch executors: it pre-counts operand occurrences
/// across the whole batch and keeps only spectra that are actually reused,
/// so a stream of unique operands costs no extra memory while a repeated
/// operand is transformed exactly once. The kept spectra are the batch's
/// own: they die with the provider.
///
/// Spectra are stored in the producing engine's own order; they are only
/// ever combined by that same engine's inverse path, so the layout never
/// leaks.
class BatchSpectrumProvider {
 public:
  /// Computes the forward spectrum of the operand into the given buffer
  /// (resizing it; callers reuse warmed capacity, so steady-state batches
  /// of single-use operands transform without heap allocation).
  using TransformFn = std::function<void(const bigint::BigUInt&, fp::FpVec&)>;

  BatchSpectrumProvider(std::span<const std::pair<bigint::BigUInt, bigint::BigUInt>> jobs,
                        TransformFn forward);

  /// The forward spectrum of `operand`. Single-use operands are computed
  /// into `scratch`, which must outlive the use of the returned reference;
  /// reused operands live in the provider (stable for its lifetime).
  const fp::FpVec& get(const bigint::BigUInt& operand, fp::FpVec& scratch);

  [[nodiscard]] u64 forward_transforms() const noexcept { return forward_transforms_; }
  [[nodiscard]] u64 cache_hits() const noexcept { return cache_hits_; }

 private:
  struct Entry {
    bigint::BigUInt operand;
    fp::FpVec spectrum;
  };

  TransformFn forward_;
  /// Occurrences per operand hash. Counting by hash may conflate distinct
  /// operands, which only means an extra spectrum gets kept -- entries
  /// compare the operand itself, so results stay exact.
  std::unordered_map<u64, unsigned> occurrences_;
  /// Spectra of reused operands by operand hash. Node-based, so returned
  /// references survive later insertions.
  std::unordered_multimap<u64, Entry> spectra_;
  u64 forward_transforms_ = 0;
  u64 cache_hits_ = 0;
};

/// Multiplies a batch of operand pairs under one SsaParams instance,
/// caching forward spectra of repeated operands: a batch that multiplies
/// one integer against N others costs N+1 forward transforms instead of
/// 2N. Products are bit-exact against per-call ssa::multiply. All
/// transient buffers come from the workspace (thread-local in the
/// two-argument overload), so steady-state batches allocate only for the
/// products and cached spectra themselves.
///
/// Every operand must fit params.max_operand_bits().
std::vector<bigint::BigUInt> multiply_batch(
    std::span<const std::pair<bigint::BigUInt, bigint::BigUInt>> jobs,
    const SsaParams& params, BatchStats* stats = nullptr);
std::vector<bigint::BigUInt> multiply_batch(
    std::span<const std::pair<bigint::BigUInt, bigint::BigUInt>> jobs,
    const SsaParams& params, Workspace& workspace, BatchStats* stats);

}  // namespace hemul::ssa
