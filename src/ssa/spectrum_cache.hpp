#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bigint/biguint.hpp"
#include "fp/fp64.hpp"
#include "ssa/params.hpp"
#include "ssa/resident.hpp"

namespace hemul::ssa {

/// Cache of forward NTT spectra keyed by operand value. Spectra are stored
/// in the producing engine's own order; they are only ever combined by that
/// same engine's inverse path, so the layout never leaks.
///
/// The SSA pipeline spends 2 of its 3 transforms on the forward NTTs of the
/// operands. When a batch multiplies one integer against many others (a
/// DGHV ciphertext AND-ed with a whole partial-product row, the shared
/// operand of an exponentiation ladder), the repeated operand's spectrum is
/// identical every time -- caching it drops the batch cost from 3N to N+1
/// transforms, generalizing the ssa::square saving (2 instead of 3).
///
/// Keys are FNV-1a hashes of the limb vector; entries store the operand for
/// exact comparison, so hash collisions cost a probe, never correctness.
/// Entries are heap-allocated individually: references returned by find()
/// stay valid across subsequent insert()s of other operands.
class SpectrumCache {
 public:
  /// The cached spectrum of `operand`, or nullptr on a miss. The pointer
  /// remains valid until the same operand is insert()ed again or clear().
  [[nodiscard]] const fp::FpVec* find(const bigint::BigUInt& operand) const;

  /// Stores the spectrum of `operand` (overwrites an equal-key entry,
  /// invalidating references to that entry's previous spectrum).
  void insert(const bigint::BigUInt& operand, fp::FpVec spectrum);

  [[nodiscard]] std::size_t size() const noexcept { return entries_; }
  void clear();

  static u64 hash(const bigint::BigUInt& operand) noexcept;

  // ---- wire-keyed resident spectra -----------------------------------
  // The spectrum-resident evaluator addresses spectra by WIRE identity,
  // not operand value: a wire's spectrum is produced once (forward NTT or
  // pointwise product) and re-consumed by every later gate touching the
  // wire, without rehashing the big integer it stands for. Keys are
  // caller-composed (wire id + spectrum kind); all entries of one
  // SpectrumCache share a single engine + packing geometry, which the
  // owning evaluator fixed when it entered the domain.

  /// The resident spectrum under `key`, or nullptr. Valid until the key is
  /// evicted/overwritten or clear().
  [[nodiscard]] const SpectrumHandle* find_resident(u64 key) const;

  /// Publishes (or replaces) the resident spectrum under `key`.
  void insert_resident(u64 key, SpectrumHandle spectrum);

  /// Drops the entry under `key`; returns whether one existed.
  bool evict_resident(u64 key);

  /// Currently resident wire spectra (bounded-memory invariant: the
  /// evaluator evicts each entry after its last consuming wavefront).
  [[nodiscard]] std::size_t resident_entries() const noexcept { return resident_.size(); }

 private:
  struct Entry {
    bigint::BigUInt operand;
    fp::FpVec spectrum;
  };

  std::unordered_map<u64, std::vector<std::unique_ptr<Entry>>> buckets_;
  std::size_t entries_ = 0;
  std::unordered_map<u64, SpectrumHandle> resident_;
};

/// Batch-scoped spectrum provider shared by the software and the
/// simulated-hardware batch executors: it pre-counts operand occurrences
/// across the whole batch and caches only spectra that are actually reused,
/// so a stream of unique operands costs no extra memory while a repeated
/// operand is transformed exactly once.
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
  /// reused operands live in the cache (stable for the provider's
  /// lifetime).
  const fp::FpVec& get(const bigint::BigUInt& operand, fp::FpVec& scratch);

  [[nodiscard]] u64 forward_transforms() const noexcept { return forward_transforms_; }
  [[nodiscard]] u64 cache_hits() const noexcept { return cache_hits_; }

 private:
  TransformFn forward_;
  /// Occurrences per operand hash. Counting by hash may conflate distinct
  /// operands, which only means an extra spectrum gets cached -- the
  /// operand equality check in SpectrumCache keeps results exact.
  std::unordered_map<u64, unsigned> occurrences_;
  SpectrumCache cache_;
  u64 forward_transforms_ = 0;
  u64 cache_hits_ = 0;
};

/// Thread-safe spectrum cache shared by the scheduler's PE lanes: many
/// worker threads multiplying against the same operand transform it once,
/// process-wide, instead of once per lane -- the cross-lane generalization
/// of BatchSpectrumProvider's within-batch amortization.
///
/// Keys pair the operand value with the packing geometry (coeff_bits,
/// transform_size) AND the spectral layout, so lanes running different SSA
/// parameterizations never mix incompatible spectra (the radix-2 and
/// four-step engines each store their own engine order). Entries are
/// immutable once published and held by shared_ptr, so readers keep their
/// spectrum alive without holding the lock. On a miss the forward
/// transform runs outside the lock; two lanes racing on the same cold
/// operand may both compute it (both count as misses), but exactly one
/// result is published.
///
/// Memory is bounded: at most `capacity` spectra are retained (a spectrum
/// is transform_size field elements, i.e. ~0.5 MB at the paper's 64K
/// point). Once full, further cold operands are computed but not published
/// -- early repeated operands keep their amortization, a long stream of
/// distinct operands stops growing the cache instead of exhausting memory.
class ConcurrentSpectrumCache {
 public:
  using TransformFn = std::function<fp::FpVec(const bigint::BigUInt&)>;

  /// Default retention bound (512 paper-sized spectra ~ 256 MB worst case).
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit ConcurrentSpectrumCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// The forward spectrum of `operand` under `params`, computing and
  /// caching it via `forward` on a miss.
  [[nodiscard]] std::shared_ptr<const fp::FpVec> get_or_compute(const bigint::BigUInt& operand,
                                                                const SsaParams& params,
                                                                const TransformFn& forward);

  struct Stats {
    u64 hits = 0;                ///< lookups served from the cache
    u64 misses = 0;              ///< lookups that ran a forward transform
    u64 resident_peak = 0;       ///< high-water mark of resident wire spectra
    u64 resident_evictions = 0;  ///< resident entries dropped after last use
  };
  [[nodiscard]] Stats stats() const noexcept;

  /// Cached spectra (distinct operand/geometry pairs).
  [[nodiscard]] std::size_t size() const;

  /// Drops all entries (spectra still referenced by lanes stay alive) and
  /// resets the hit/miss counters.
  void clear();

  // ---- wire-keyed resident spectra -----------------------------------
  // The Service's cross-request residency registry: evaluators publish
  // wire spectra under caller-composed keys (evaluation uid + wire id +
  // spectrum kind) so lanes and the coordinator share one copy. Memory
  // stays bounded because evaluators evict every key after its last
  // consuming wavefront -- resident_peak / resident_evictions make that
  // invariant observable (and testable).

  /// Publishes (or replaces) the resident spectrum under `key`.
  void put_resident(u64 key, SpectrumHandle spectrum);

  /// The resident spectrum under `key`, or an empty handle.
  [[nodiscard]] SpectrumHandle get_resident(u64 key) const;

  /// Drops the entry under `key` (handles held elsewhere stay alive);
  /// returns whether one existed.
  bool evict_resident(u64 key);

  /// Currently resident wire spectra.
  [[nodiscard]] std::size_t resident_size() const;

 private:
  struct Entry {
    std::size_t coeff_bits;
    u64 transform_size;
    /// Spectral layout of the producing engine (spectra of the radix-2
    /// and four-step engines are layout-incompatible).
    SpectralLayout layout;
    bigint::BigUInt operand;
    fp::FpVec spectrum;
  };

  static u64 key_hash(const bigint::BigUInt& operand, const SsaParams& params) noexcept;
  static bool matches(const Entry& entry, const bigint::BigUInt& operand,
                      const SsaParams& params) noexcept;

  mutable std::shared_mutex mutex_;
  std::size_t capacity_;
  std::unordered_map<u64, std::vector<std::shared_ptr<const Entry>>> buckets_;
  std::size_t entries_ = 0;
  std::unordered_map<u64, SpectrumHandle> resident_;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> resident_peak_{0};
  std::atomic<u64> resident_evictions_{0};
};

}  // namespace hemul::ssa
