#include "ssa/batch.hpp"

#include "ssa/resident.hpp"

namespace hemul::ssa {

using bigint::BigUInt;
using fp::FpVec;

namespace {

u64 operand_hash(const BigUInt& operand) noexcept {
  u64 h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const u64 limb : operand.limbs()) {
    h ^= limb;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

BatchSpectrumProvider::BatchSpectrumProvider(
    std::span<const std::pair<BigUInt, BigUInt>> jobs, TransformFn forward)
    : forward_(std::move(forward)) {
  for (const auto& [a, b] : jobs) {
    ++occurrences_[operand_hash(a)];
    ++occurrences_[operand_hash(b)];
  }
}

const FpVec& BatchSpectrumProvider::get(const BigUInt& operand, FpVec& scratch) {
  const u64 key = operand_hash(operand);
  const auto it = occurrences_.find(key);
  const bool reused = it != occurrences_.end() && it->second > 1;
  if (!reused) {
    ++forward_transforms_;
    forward_(operand, scratch);  // fills in place: scratch keeps its capacity
    return scratch;
  }
  for (auto [entry, end] = spectra_.equal_range(key); entry != end; ++entry) {
    if (entry->second.operand == operand) {
      ++cache_hits_;
      return entry->second.spectrum;
    }
  }
  ++forward_transforms_;
  FpVec owned;  // kept spectra own their storage
  forward_(operand, owned);
  return spectra_.emplace(key, Entry{operand, std::move(owned)})->second.spectrum;
}

std::vector<BigUInt> multiply_batch(std::span<const std::pair<BigUInt, BigUInt>> jobs,
                                    const SsaParams& params, Workspace& ws,
                                    BatchStats* stats) {
  BatchStats local;
  local.jobs = jobs.size();

  std::vector<BigUInt> products;
  products.reserve(jobs.size());
  if (jobs.empty()) {
    if (stats != nullptr) *stats = local;
    return products;
  }

  const SpectrumDomain domain(params, ws);
  BatchSpectrumProvider spectra(jobs, [&domain](const BigUInt& operand, FpVec& dst) {
    domain.forward_into(operand, dst);
  });

  for (const auto& [a, b] : jobs) {
    if (a.is_zero() || b.is_zero()) {
      products.emplace_back();
      continue;
    }
    const FpVec& fa = spectra.get(a, ws.spec_a);
    const FpVec& fb = spectra.get(b, ws.spec_b);
    ++local.inverse_transforms;
    products.emplace_back();
    domain.product_into(products.back(), fa, fb);
  }

  local.forward_transforms = spectra.forward_transforms();
  local.spectrum_cache_hits = spectra.cache_hits();
  if (stats != nullptr) *stats = local;
  return products;
}

std::vector<BigUInt> multiply_batch(std::span<const std::pair<BigUInt, BigUInt>> jobs,
                                    const SsaParams& params, BatchStats* stats) {
  return multiply_batch(jobs, params, thread_workspace(), stats);
}

}  // namespace hemul::ssa
