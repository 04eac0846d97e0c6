#include "ssa/spectrum_cache.hpp"

#include <mutex>

namespace hemul::ssa {

u64 SpectrumCache::hash(const bigint::BigUInt& operand) noexcept {
  u64 h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const u64 limb : operand.limbs()) {
    h ^= limb;
    h *= 0x100000001b3ULL;
  }
  return h;
}

const fp::FpVec* SpectrumCache::find(const bigint::BigUInt& operand) const {
  const auto it = buckets_.find(hash(operand));
  if (it == buckets_.end()) return nullptr;
  for (const std::unique_ptr<Entry>& entry : it->second) {
    if (entry->operand == operand) return &entry->spectrum;
  }
  return nullptr;
}

void SpectrumCache::insert(const bigint::BigUInt& operand, fp::FpVec spectrum) {
  std::vector<std::unique_ptr<Entry>>& bucket = buckets_[hash(operand)];
  for (std::unique_ptr<Entry>& entry : bucket) {
    if (entry->operand == operand) {
      entry->spectrum = std::move(spectrum);
      return;
    }
  }
  bucket.push_back(std::make_unique<Entry>(Entry{operand, std::move(spectrum)}));
  ++entries_;
}

void SpectrumCache::clear() {
  buckets_.clear();
  entries_ = 0;
  resident_.clear();
}

const SpectrumHandle* SpectrumCache::find_resident(u64 key) const {
  const auto it = resident_.find(key);
  return it != resident_.end() ? &it->second : nullptr;
}

void SpectrumCache::insert_resident(u64 key, SpectrumHandle spectrum) {
  resident_[key] = std::move(spectrum);
}

bool SpectrumCache::evict_resident(u64 key) { return resident_.erase(key) != 0; }

BatchSpectrumProvider::BatchSpectrumProvider(
    std::span<const std::pair<bigint::BigUInt, bigint::BigUInt>> jobs, TransformFn forward)
    : forward_(std::move(forward)) {
  for (const auto& [a, b] : jobs) {
    ++occurrences_[SpectrumCache::hash(a)];
    ++occurrences_[SpectrumCache::hash(b)];
  }
}

const fp::FpVec& BatchSpectrumProvider::get(const bigint::BigUInt& operand,
                                            fp::FpVec& scratch) {
  const auto it = occurrences_.find(SpectrumCache::hash(operand));
  const bool reused = it != occurrences_.end() && it->second > 1;
  if (!reused) {
    ++forward_transforms_;
    forward_(operand, scratch);  // fills in place: scratch keeps its capacity
    return scratch;
  }
  if (const fp::FpVec* hit = cache_.find(operand)) {
    ++cache_hits_;
    return *hit;
  }
  ++forward_transforms_;
  fp::FpVec owned;  // cache entries must own their storage
  forward_(operand, owned);
  cache_.insert(operand, std::move(owned));
  return *cache_.find(operand);
}

u64 ConcurrentSpectrumCache::key_hash(const bigint::BigUInt& operand,
                                      const SsaParams& params) noexcept {
  u64 h = SpectrumCache::hash(operand);
  // Fold the packing geometry AND the spectral layout in so equal operands
  // under different parameterizations land in different buckets: the
  // radix-2 path stores engine-order (bit-reversed) spectra, the four-step
  // path its own row-major bit-reversed order.
  h ^= static_cast<u64>(params.coeff_bits) * 0x9E3779B97F4A7C15ULL;
  h ^= params.transform_size * 0xC2B2AE3D27D4EB4FULL;
  h ^= static_cast<u64>(params.spectral_layout()) * 0xD6E8FEB86659FD93ULL;
  return h;
}

bool ConcurrentSpectrumCache::matches(const Entry& entry, const bigint::BigUInt& operand,
                                      const SsaParams& params) noexcept {
  return entry.coeff_bits == params.coeff_bits &&
         entry.transform_size == params.transform_size &&
         entry.layout == params.spectral_layout() && entry.operand == operand;
}

std::shared_ptr<const fp::FpVec> ConcurrentSpectrumCache::get_or_compute(
    const bigint::BigUInt& operand, const SsaParams& params, const TransformFn& forward) {
  const u64 key = key_hash(operand, params);
  {
    std::shared_lock lock(mutex_);
    const auto it = buckets_.find(key);
    if (it != buckets_.end()) {
      for (const std::shared_ptr<const Entry>& entry : it->second) {
        if (matches(*entry, operand, params)) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return {entry, &entry->spectrum};
        }
      }
    }
  }

  // Cold operand: transform outside the lock (the NTT dominates; a racing
  // lane may duplicate the work, never the published entry).
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto entry = std::make_shared<const Entry>(
      Entry{params.coeff_bits, params.transform_size, params.spectral_layout(), operand,
            forward(operand)});

  std::unique_lock lock(mutex_);
  const auto it = buckets_.find(key);
  if (it != buckets_.end()) {
    for (const std::shared_ptr<const Entry>& existing : it->second) {
      if (matches(*existing, operand, params)) return {existing, &existing->spectrum};
    }
  }
  if (entries_ < capacity_) {
    (it != buckets_.end() ? it->second : buckets_[key]).push_back(entry);
    ++entries_;
  }
  return {entry, &entry->spectrum};
}

void ConcurrentSpectrumCache::put_resident(u64 key, SpectrumHandle spectrum) {
  std::unique_lock lock(mutex_);
  resident_[key] = std::move(spectrum);
  const u64 occupancy = resident_.size();
  if (occupancy > resident_peak_.load(std::memory_order_relaxed)) {
    resident_peak_.store(occupancy, std::memory_order_relaxed);
  }
}

SpectrumHandle ConcurrentSpectrumCache::get_resident(u64 key) const {
  std::shared_lock lock(mutex_);
  const auto it = resident_.find(key);
  return it != resident_.end() ? it->second : SpectrumHandle{};
}

bool ConcurrentSpectrumCache::evict_resident(u64 key) {
  std::unique_lock lock(mutex_);
  const bool erased = resident_.erase(key) != 0;
  if (erased) resident_evictions_.fetch_add(1, std::memory_order_relaxed);
  return erased;
}

std::size_t ConcurrentSpectrumCache::resident_size() const {
  std::shared_lock lock(mutex_);
  return resident_.size();
}

ConcurrentSpectrumCache::Stats ConcurrentSpectrumCache::stats() const noexcept {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
          resident_peak_.load(std::memory_order_relaxed),
          resident_evictions_.load(std::memory_order_relaxed)};
}

std::size_t ConcurrentSpectrumCache::size() const {
  std::shared_lock lock(mutex_);
  return entries_;
}

void ConcurrentSpectrumCache::clear() {
  std::unique_lock lock(mutex_);
  buckets_.clear();
  entries_ = 0;
  resident_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  resident_peak_.store(0, std::memory_order_relaxed);
  resident_evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace hemul::ssa
