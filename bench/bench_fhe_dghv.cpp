// Experiment E7: the end-to-end homomorphic-encryption workload the paper
// motivates (Section I/III): DGHV over the integers with the ciphertext
// multiplication mapped onto the accelerator. Reports software wall-clock
// per primitive plus the modeled accelerator time for the gamma-bit
// ciphertext product.

#include <chrono>
#include <cstdio>

#include "core/accelerator.hpp"
#include "fhe/dghv.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace hemul;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void run_setting(const char* name, const fhe::DghvParams& params, util::Table& table) {
  auto t0 = Clock::now();
  fhe::Dghv scheme(params, 7);
  const double keygen_ms = ms_since(t0);

  t0 = Clock::now();
  const fhe::Ciphertext c1 = scheme.encrypt(true);
  const fhe::Ciphertext c2 = scheme.encrypt(false);
  const double encrypt_ms = ms_since(t0) / 2.0;

  t0 = Clock::now();
  const fhe::Ciphertext cx = scheme.add(c1, c2);
  const double add_ms = ms_since(t0);

  t0 = Clock::now();
  const fhe::Ciphertext cm = scheme.multiply(c1, c2);
  const double mult_ms = ms_since(t0);

  t0 = Clock::now();
  const bool d1 = scheme.decrypt(cm);
  const double decrypt_ms = ms_since(t0);

  const bool ok = scheme.decrypt(c1) && !scheme.decrypt(c2) &&
                  scheme.decrypt(cx) && !d1;

  table.add_row({name, util::with_commas(params.gamma),
                 util::format_fixed(keygen_ms, 1) + " ms",
                 util::format_fixed(encrypt_ms, 2) + " ms",
                 util::format_fixed(add_ms, 3) + " ms",
                 util::format_fixed(mult_ms, 1) + " ms",
                 util::format_fixed(decrypt_ms, 2) + " ms", ok ? "ok" : "FAIL"});
}

}  // namespace

int main() {
  std::printf("E7: DGHV somewhat-homomorphic encryption on top of the multiplier\n");
  std::printf("(hom-mult = one gamma-bit product + reduction mod x0; software wall-clock, "
              "this host)\n\n");

  util::Table t({"setting", "gamma (bits)", "keygen", "encrypt", "hom-add", "hom-mult",
                 "decrypt", "check"});
  run_setting("toy", fhe::DghvParams::toy(), t);
  run_setting("medium", fhe::DghvParams::medium(), t);
  run_setting("small (paper)", fhe::DghvParams::small_paper(), t);
  std::printf("%s\n", t.render().c_str());

  // The accelerator view of one paper-scale homomorphic multiplication.
  core::Accelerator accel;
  const hw::PerfBreakdown perf = accel.performance();
  std::printf("Modeled accelerator time for one 786,432-bit ciphertext product:\n");
  std::printf("  %s (3 FFTs %s + dot product %s + carry recovery %s)\n",
              util::format_time_ns(perf.mult_us() * 1000).c_str(),
              util::format_time_ns(3 * perf.fft_us() * 1000).c_str(),
              util::format_time_ns(perf.dotprod_us() * 1000).c_str(),
              util::format_time_ns(perf.carry_us() * 1000).c_str());

  fhe::Dghv scheme(fhe::DghvParams::small_paper(), 11);
  const auto ca = scheme.encrypt(true);
  const auto cb = scheme.encrypt(true);
  // The accelerator models the product alone, so the software figure it
  // is compared against is the engine's product, without the reduction
  // modulo x0 that Dghv::multiply adds.
  auto start = Clock::now();
  const bigint::BigUInt raw = scheme.engine()->multiply(ca.value, cb.value);
  const double product_ms = ms_since(start);
  start = Clock::now();
  const auto product = scheme.multiply(ca, cb);
  const double hom_mult_ms = ms_since(start);
  std::printf("Software %s product alone on this host: %s (%zu bits)\n",
              scheme.engine()->name().c_str(), util::format_time_ns(product_ms * 1e6).c_str(),
              raw.bit_length());
  std::printf("Full homomorphic multiply (product + reduction mod x0): %s\n",
              util::format_time_ns(hom_mult_ms * 1e6).c_str());
  std::printf("Decrypt(Enc(1) AND Enc(1)) = %d (expect 1)\n",
              scheme.decrypt(product) ? 1 : 0);
  std::printf("\nModeled accelerator speedup over this host's software product: %.1fx\n",
              product_ms * 1000.0 / perf.mult_us());
  return 0;
}
