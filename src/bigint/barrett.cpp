#include "bigint/barrett.hpp"

#include <stdexcept>

#include "bigint/div.hpp"
#include "bigint/mul.hpp"
#include "util/check.hpp"

namespace hemul::bigint {

BarrettReducer::BarrettReducer(BigUInt modulus)
    : m_(std::move(modulus)), mul_(mul_auto) {
  if (m_ < BigUInt{2}) throw std::invalid_argument("BarrettReducer: modulus must be >= 2");
  k_ = m_.limb_count();
  // mu = floor(b^(2k) / m), b = 2^64 -- the only division ever performed.
  mu_ = BigUInt::pow2(128 * k_) / m_;
  m_squared_ = mul_auto(m_, m_);
}

BigUInt BarrettReducer::reduce(const BigUInt& x) const {
  HEMUL_CHECK_MSG(x < m_squared_, "Barrett input must be below m^2");

  // q1 = floor(x / b^(k-1)); q3 = floor(q1 * mu / b^(k+1)).
  BigUInt q = x >> (64 * (k_ - 1));
  ++mults_;
  q = mul_(q, mu_);
  q >>= 64 * (k_ + 1);

  // r = (x - q*m) mod b^(k+1); the estimate is off by at most 2m.
  ++mults_;
  const BigUInt qm = mul_(q, m_);
  const std::size_t mod_bits = 64 * (k_ + 1);
  // Truncate both operands to k+1 limbs before subtracting (mod b^(k+1)).
  const auto low_limbs = [this](const BigUInt& v) {
    const auto limbs = v.limbs();
    const std::size_t n = std::min(limbs.size(), k_ + 1);
    return BigUInt::from_limbs({limbs.begin(), limbs.begin() + static_cast<std::ptrdiff_t>(n)});
  };
  BigUInt r1 = low_limbs(x);
  const BigUInt r2 = low_limbs(qm);
  if (r1 < r2) r1 += BigUInt::pow2(mod_bits);
  r1 -= r2;

  // At most two final corrections (HAC 14.42 step 4).
  while (r1 >= m_) r1 -= m_;
  return r1;
}

BigUInt BarrettReducer::mod_mul(const BigUInt& a, const BigUInt& b) const {
  HEMUL_CHECK_MSG(a < m_ && b < m_, "mod_mul operands must be reduced");
  ++mults_;
  return reduce(mul_(a, b));
}

BigUInt BarrettReducer::mod_pow(const BigUInt& a, const BigUInt& e) const {
  BigUInt base = a % m_;
  BigUInt acc{1};
  if (e.is_zero()) return m_ == BigUInt{1} ? BigUInt{} : acc;
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = mod_mul(acc, acc);
    if (e.bit(i)) acc = mod_mul(acc, base);
  }
  return acc;
}

}  // namespace hemul::bigint
