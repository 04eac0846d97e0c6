#include "ssa/multiply.hpp"

#include <algorithm>

#include "ntt/four_step.hpp"
#include "ntt/radix2.hpp"
#include "ssa/pack.hpp"

namespace hemul::ssa {

using bigint::BigUInt;

void multiply_into(BigUInt& out, const BigUInt& a, const BigUInt& b, const SsaParams& params,
                   Workspace& ws, SsaStats* stats) {
  if (a.is_zero() || b.is_zero()) {
    bigint::MutableAccess::limbs(out).clear();
    return;
  }

  pack_into(a, params, ws.pack_a);
  pack_into(b, params, ws.pack_b);

  if (params.use_four_step()) {
    // The four-step cache-blocked path, its corner-turn scratch in the
    // workspace.
    ntt::shared_four_step(params.transform_size)
        .convolve_into(ws.pack_a, ws.pack_b, ws.turn_scratch);
  } else {
    // Shared engine (twiddle tables cached process-wide, lock-free lookup)
    // and the bit-reversal-free DIF/DIT convolution path, in place over the
    // workspace's pack buffers.
    ntt::shared_radix2(params.transform_size).convolve_into(ws.pack_a, ws.pack_b);
  }

  if (stats != nullptr) {
    stats->pointwise_muls += params.transform_size;
    stats->transform_count += 3;
  }
  carry_recover_into(ws.pack_a, params.coeff_bits, out);
}

BigUInt multiply(const BigUInt& a, const BigUInt& b, const SsaParams& params,
                 SsaStats* stats) {
  BigUInt out;
  multiply_into(out, a, b, params, thread_workspace(), stats);
  return out;
}

BigUInt mul_ssa(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt{};
  const std::size_t bits = std::max(a.bit_length(), b.bit_length());
  return multiply(a, b, SsaParams::for_bits(bits));
}

void square_into(BigUInt& out, const BigUInt& a, const SsaParams& params, Workspace& ws,
                 SsaStats* stats) {
  if (a.is_zero()) {
    bigint::MutableAccess::limbs(out).clear();
    return;
  }

  pack_into(a, params, ws.pack_a);
  if (params.use_four_step()) {
    ntt::shared_four_step(params.transform_size).convolve_square_into(ws.pack_a, ws.turn_scratch);
  } else {
    ntt::shared_radix2(params.transform_size).convolve_square_into(ws.pack_a);
  }

  if (stats != nullptr) {
    stats->pointwise_muls += params.transform_size;
    stats->transform_count += 2;  // one forward + one inverse
  }
  carry_recover_into(ws.pack_a, params.coeff_bits, out);
}

BigUInt square(const BigUInt& a, const SsaParams& params, SsaStats* stats) {
  BigUInt out;
  square_into(out, a, params, thread_workspace(), stats);
  return out;
}

}  // namespace hemul::ssa
