#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bigint/mul.hpp"
#include "ntt/four_step.hpp"
#include "ntt/radix2.hpp"
#include "ntt/reference.hpp"
#include "ssa/multiply.hpp"
#include "ssa/params.hpp"
#include "ssa/resident.hpp"
#include "ssa/workspace.hpp"
#include "util/rng.hpp"

namespace hemul::ntt {
namespace {

using bigint::BigUInt;
using fp::Fp;
using fp::FpVec;

FpVec random_vec(util::Rng& rng, std::size_t n) {
  FpVec v(n);
  for (auto& x : v) x = Fp{rng.next()};
  return v;
}

/// Worst case for the redundant representation: every input pinned at the
/// largest canonical value p - 1.
FpVec adversarial_vec(std::size_t n) { return FpVec(n, Fp::from_canonical(fp::kModulus - 1)); }

// ---- natural-order golden parity -----------------------------------------

class FourStepVsReference : public ::testing::TestWithParam<u64> {};

TEST_P(FourStepVsReference, ForwardMatchesDirectDft) {
  const u64 n = GetParam();
  const FourStepNtt engine(n);
  ASSERT_EQ(engine.n1() * engine.n2(), n);
  util::Rng rng(n);
  FpVec data = random_vec(rng, n);
  const FpVec expected = dft_reference(data, engine.root());
  FpVec scratch;
  engine.forward(data, scratch);
  EXPECT_EQ(data, expected);
}

TEST_P(FourStepVsReference, ForwardMatchesRadix2BitExactly) {
  // Same root hierarchy => directly comparable natural-order spectra.
  const u64 n = GetParam();
  const FourStepNtt four(n);
  const Radix2Ntt radix2(n);
  ASSERT_EQ(four.root(), radix2.root());
  util::Rng rng(n + 1);
  FpVec a = random_vec(rng, n);
  FpVec b = a;
  FpVec scratch;
  four.forward(a, scratch);
  radix2.forward(b);
  EXPECT_EQ(a, b);
}

TEST_P(FourStepVsReference, RoundTrip) {
  const u64 n = GetParam();
  const FourStepNtt engine(n);
  util::Rng rng(n + 7);
  const FpVec orig = random_vec(rng, n);
  FpVec data = orig;
  FpVec scratch;
  engine.forward(data, scratch);
  EXPECT_NE(data, orig);
  engine.inverse(data, scratch);
  EXPECT_EQ(data, orig);
}

TEST_P(FourStepVsReference, SpectrumRoundTrip) {
  const u64 n = GetParam();
  const FourStepNtt engine(n);
  util::Rng rng(n + 13);
  const FpVec orig = random_vec(rng, n);
  FpVec data = orig;
  FpVec scratch;
  engine.forward_spectrum(data, scratch);
  engine.inverse_from_spectrum(data, scratch);
  EXPECT_EQ(data, orig);
}

TEST_P(FourStepVsReference, AdversarialMaxValueRoundTrip) {
  // All-(p-1) inputs stress the lazy-reduction bounds of every pass.
  const u64 n = GetParam();
  const FourStepNtt engine(n);
  const FpVec orig = adversarial_vec(n);
  FpVec data = orig;
  FpVec scratch;
  engine.forward_spectrum(data, scratch);
  engine.inverse_from_spectrum(data, scratch);
  EXPECT_EQ(data, orig);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FourStepVsReference,
                         ::testing::Values(4, 8, 16, 64, 256, 1024, 4096));

// ---- non-square splits ---------------------------------------------------

class FourStepSplits : public ::testing::TestWithParam<std::pair<u64, u64>> {};

TEST_P(FourStepSplits, ForwardMatchesReferenceAndRoundTrips) {
  const auto [n1, n2] = GetParam();
  const u64 n = n1 * n2;
  const FourStepNtt engine(n1, n2);
  EXPECT_EQ(engine.n1(), n1);
  EXPECT_EQ(engine.n2(), n2);
  util::Rng rng(n1 * 31 + n2);
  const FpVec orig = random_vec(rng, n);

  FpVec data = orig;
  FpVec scratch;
  engine.forward(data, scratch);
  EXPECT_EQ(data, dft_reference(orig, engine.root()));
  engine.inverse(data, scratch);
  EXPECT_EQ(data, orig);

  data = orig;
  engine.forward_spectrum(data, scratch);
  engine.inverse_from_spectrum(data, scratch);
  EXPECT_EQ(data, orig);
}

TEST_P(FourStepSplits, ConvolveMatchesRadix2) {
  const auto [n1, n2] = GetParam();
  const u64 n = n1 * n2;
  const FourStepNtt engine(n1, n2);
  const Radix2Ntt radix2(n);
  util::Rng rng(n1 * 37 + n2);
  const FpVec a = random_vec(rng, n);
  const FpVec b = random_vec(rng, n);
  const FpVec expected = radix2.convolve(a, b);

  FpVec fa = a, fb = b, scratch;
  engine.convolve_into(fa, fb, scratch);
  EXPECT_EQ(fa, expected);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FourStepSplits,
                         ::testing::Values(std::pair<u64, u64>{2, 8},
                                           std::pair<u64, u64>{8, 2},
                                           std::pair<u64, u64>{4, 16},
                                           std::pair<u64, u64>{16, 4},
                                           std::pair<u64, u64>{128, 16},
                                           std::pair<u64, u64>{16, 128},
                                           std::pair<u64, u64>{2, 2048}));

// ---- convolution parity --------------------------------------------------

TEST(FourStepConvolve, MatchesRadix2AcrossSizes) {
  for (const u64 n : {16u, 256u, 1024u, 4096u}) {
    const FourStepNtt engine(n);
    const Radix2Ntt radix2(n);
    util::Rng rng(n + 3);
    const FpVec a = random_vec(rng, n);
    const FpVec b = random_vec(rng, n);
    FpVec fa = a, fb = b, scratch;
    engine.convolve_into(fa, fb, scratch);
    EXPECT_EQ(fa, radix2.convolve(a, b)) << "n = " << n;
  }
}

TEST(FourStepConvolve, AdversarialMaxValueOperands) {
  for (const u64 n : {1024u, 2048u}) {
    const FourStepNtt engine(n);
    const Radix2Ntt radix2(n);
    const FpVec a = adversarial_vec(n);
    FpVec fa = a, fb = a, scratch;
    engine.convolve_into(fa, fb, scratch);
    EXPECT_EQ(fa, radix2.convolve(a, a)) << "n = " << n;

    fa = a;
    engine.convolve_square_into(fa, scratch);
    EXPECT_EQ(fa, radix2.convolve(a, a)) << "square n = " << n;
  }
}

TEST(FourStepConvolve, FromSpectraMatchesDirect) {
  const u64 n = 1024;
  const FourStepNtt engine(n);
  util::Rng rng(5);
  const FpVec a = random_vec(rng, n);
  const FpVec b = random_vec(rng, n);

  FpVec fa = a, fb = b, scratch;
  engine.forward_spectrum(fa, scratch);
  engine.forward_spectrum(fb, scratch);
  FpVec out;
  engine.convolve_from_spectra(out, fa, fb, scratch);

  FpVec direct_a = a, direct_b = b;
  engine.convolve_into(direct_a, direct_b, scratch);
  EXPECT_EQ(out, direct_a);
}

// ---- ssa routing ---------------------------------------------------------

TEST(SsaFourStep, MultiplyMatchesSchoolbookAcrossTheEngineThreshold) {
  // for_bits picks m = 26 here: 416 bits -> 16 coefficients -> a 32-point
  // radix-2 transform; 417 bits -> 17 coefficients -> 64 points, the first
  // four-step size. The transform follows transform_size alone.
  bool saw_radix2 = false;
  bool saw_four_step = false;
  for (const std::size_t bits : {100u, 416u, 417u, 1000u, 4096u, 20000u}) {
    util::Rng rng(bits);
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);

    const ssa::SsaParams params = ssa::SsaParams::for_bits(bits);
    EXPECT_EQ(params.use_four_step(), params.transform_size >= ssa::kFourStepMinTransform) << bits;
    saw_radix2 = saw_radix2 || !params.use_four_step();
    saw_four_step = saw_four_step || params.use_four_step();

    EXPECT_EQ(ssa::multiply(a, b, params), bigint::mul_schoolbook(a, b)) << bits;
    EXPECT_EQ(ssa::square(a, params), bigint::mul_schoolbook(a, a)) << bits;
  }
  EXPECT_EQ(ssa::SsaParams::for_bits(416).transform_size, 32u);
  EXPECT_EQ(ssa::SsaParams::for_bits(417).transform_size, 64u);
  EXPECT_TRUE(saw_radix2);
  EXPECT_TRUE(saw_four_step);
}

TEST(SsaFourStep, AdversarialAllOnesOperands) {
  // One size on each side of kFourStepMinTransform.
  for (const std::size_t bits : {416u, 4096u}) {
    const BigUInt ones = BigUInt::pow2(bits) - BigUInt(1);
    const ssa::SsaParams params = ssa::SsaParams::for_bits(bits);
    EXPECT_EQ(ssa::multiply(ones, ones, params), bigint::mul_schoolbook(ones, ones)) << bits;
  }
}

TEST(SsaFourStep, SpectrumDomainRoundTripsWithFourStepEngine) {
  const ssa::SsaParams params = ssa::SsaParams::for_bits(1024, ssa::kResidentHeadroomBits);
  ASSERT_TRUE(params.use_four_step());
  ssa::Workspace workspace;
  const ssa::SpectrumDomain domain(params, workspace);

  util::Rng rng(23);
  const BigUInt a = BigUInt::random_bits(rng, 1024);
  const BigUInt b = BigUInt::random_bits(rng, 1024);
  ssa::ResidentSpectrum sa, sb;
  domain.enter(sa, a);
  domain.enter(sb, b);
  ASSERT_TRUE(domain.can_multiply(sa, sb));
  ssa::ResidentSpectrum product;
  domain.multiply(product, sa, sb);

  // Lazy accumulate twice, then leave: 2ab, exactly.
  ssa::ResidentSpectrum acc;
  ASSERT_TRUE(domain.can_accumulate(acc, product));
  domain.accumulate(acc, product);
  ASSERT_TRUE(domain.can_accumulate(acc, product));
  domain.accumulate(acc, product);
  BigUInt materialized;
  domain.leave(materialized, acc);
  const BigUInt ab = bigint::mul_schoolbook(a, b);
  EXPECT_EQ(materialized, ab + ab);
}

}  // namespace
}  // namespace hemul::ntt
