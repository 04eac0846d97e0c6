// Allocation audit of the SSA hot path: after warm-up, multiply_into /
// square_into must perform ZERO heap allocations -- the software
// equivalent of the paper's claim that the accelerator runs from
// pre-resident twiddle ROMs and statically managed buffers with no
// per-operation setup.
//
// The audit counts every route into the heap by overriding the global
// operator new/delete for this test binary (std::vector, BigUInt limbs and
// all library transients funnel through them).

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "bigint/mul.hpp"
#include "core/scheduler.hpp"
#include "ssa/multiply.hpp"
#include "ssa/pack.hpp"
#include "ssa/resident.hpp"
#include "util/rng.hpp"

namespace {

thread_local hemul::u64 g_allocations = 0;

}  // namespace

// Counting allocator: every form of operator new funnels through malloc and
// bumps the thread-local counter. (Sized/aligned deletes forward to free.)
void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace hemul::ssa {
namespace {

using bigint::BigUInt;

class SsaAllocationAudit : public ::testing::Test {
 protected:
  /// Allocations performed by `fn` on this thread.
  template <typename Fn>
  static u64 allocations_in(Fn&& fn) {
    const u64 before = g_allocations;
    fn();
    return g_allocations - before;
  }
};

TEST_F(SsaAllocationAudit, SteadyStateMultiplyIntoIsAllocationFree) {
  util::Rng rng(1);
  const std::size_t bits = 20000;
  const BigUInt a = BigUInt::random_bits(rng, bits);
  const BigUInt b = BigUInt::random_bits(rng, bits);
  const SsaParams params = SsaParams::for_bits(bits);

  Workspace workspace;
  BigUInt product;
  // Warm-up: builds the shared engine, sizes the workspace and the
  // product's limb storage.
  multiply_into(product, a, b, params, workspace);
  multiply_into(product, a, b, params, workspace);
  const BigUInt expected = product;

  for (int round = 0; round < 5; ++round) {
    const u64 allocs = allocations_in([&] {
      multiply_into(product, a, b, params, workspace);
    });
    EXPECT_EQ(allocs, 0u) << "round " << round;
  }
  EXPECT_EQ(product, expected);
  EXPECT_EQ(product, bigint::mul_karatsuba(a, b));
}

TEST_F(SsaAllocationAudit, SteadyStateSquareIntoIsAllocationFree) {
  util::Rng rng(2);
  const BigUInt a = BigUInt::random_bits(rng, 15000);
  const SsaParams params = SsaParams::for_bits(15000);

  Workspace workspace;
  BigUInt product;
  square_into(product, a, params, workspace);
  square_into(product, a, params, workspace);

  for (int round = 0; round < 5; ++round) {
    const u64 allocs = allocations_in([&] { square_into(product, a, params, workspace); });
    EXPECT_EQ(allocs, 0u) << "round " << round;
  }
  EXPECT_EQ(product, bigint::mul_karatsuba(a, a));
}

TEST_F(SsaAllocationAudit, BothTransformPathsAreAllocationFree) {
  // 416 bits run the radix-2 transform (32 points); 20000 bits the
  // cache-blocked four-step one, which keeps its corner-turn buffer inside
  // the Workspace and must be just as allocation-free.
  util::Rng rng(5);
  for (const std::size_t bits : {416u, 20000u}) {
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);
    const SsaParams params = SsaParams::for_bits(bits);
    ASSERT_EQ(params.use_four_step(), bits == 20000u);

    Workspace workspace;
    BigUInt product;
    multiply_into(product, a, b, params, workspace);
    multiply_into(product, a, b, params, workspace);

    for (int round = 0; round < 5; ++round) {
      const u64 allocs = allocations_in([&] {
        multiply_into(product, a, b, params, workspace);
      });
      EXPECT_EQ(allocs, 0u) << bits << " bits, round " << round;
    }
    EXPECT_EQ(product, bigint::mul_karatsuba(a, b)) << bits;

    // Squaring shares the same scratch discipline.
    square_into(product, a, params, workspace);
    for (int round = 0; round < 5; ++round) {
      const u64 allocs = allocations_in([&] { square_into(product, a, params, workspace); });
      EXPECT_EQ(allocs, 0u) << bits << " bits, square round " << round;
    }
    EXPECT_EQ(product, bigint::mul_karatsuba(a, a)) << bits;
  }
}

TEST_F(SsaAllocationAudit, ResidentSpectrumSteadyStateIsAllocationFree) {
  // The spectrum-resident protocol's primitives (enter / multiply /
  // accumulate / leave) into warmed ResidentSpectrum buffers must be
  // allocation-free, or keeping wires in the domain across wavefronts
  // would trade transforms for heap churn.
  util::Rng rng(6);
  const std::size_t bits = 20000;
  const BigUInt a = BigUInt::random_bits(rng, bits);
  const BigUInt b = BigUInt::random_bits(rng, bits);
  const SsaParams params = SsaParams::for_bits(bits, kResidentHeadroomBits);

  Workspace workspace;
  const SpectrumDomain domain(params, workspace);
  ResidentSpectrum sa, sb, product, acc;
  BigUInt out;
  const auto run = [&] {
    acc.reset();
    domain.enter(sa, a);
    domain.enter(sb, b);
    domain.multiply(product, sa, sb);
    domain.accumulate(acc, product);
    domain.accumulate(acc, product);
    domain.leave(out, acc);
  };
  run();
  run();
  const BigUInt expected = out;

  for (int round = 0; round < 3; ++round) {
    const u64 allocs = allocations_in(run);
    EXPECT_EQ(allocs, 0u) << "round " << round;
  }
  EXPECT_EQ(out, expected);
  const BigUInt ab = bigint::mul_karatsuba(a, b);
  EXPECT_EQ(out, ab + ab) << "acc held ab + ab";
}

TEST_F(SsaAllocationAudit, AllocatingWrapperOnlyPaysForTheProduct) {
  // ssa::multiply returns a fresh BigUInt; everything else must come from
  // the thread workspace. One limb-vector allocation is the expected cost.
  util::Rng rng(4);
  const std::size_t bits = 20000;
  const BigUInt a = BigUInt::random_bits(rng, bits);
  const BigUInt b = BigUInt::random_bits(rng, bits);
  const SsaParams params = SsaParams::for_bits(bits);

  (void)multiply(a, b, params);
  (void)multiply(a, b, params);
  const u64 allocs = allocations_in([&] { (void)multiply(a, b, params); });
  EXPECT_EQ(allocs, 1u);
}

TEST_F(SsaAllocationAudit, SchedulerLaneMultiplyAllocatesOnlyTheProduct) {
  // An "ssa" scheduler lane multiplies in its own workspace with nothing
  // shared across lanes: once warm, engine.multiply of operands the lane
  // has never seen allocates the returned product and nothing else. The
  // counter is thread-local, so the job counts the lane thread's own
  // allocations.
  util::Rng rng(7);
  const std::size_t bits = 20000;
  std::vector<BigUInt> operands;
  for (int i = 0; i < 8; ++i) operands.push_back(BigUInt::random_bits(rng, bits));

  core::Config config;
  config.backend_name = "ssa";
  config.num_workers = 1;
  core::Scheduler scheduler(config);

  std::vector<u64> allocs;
  std::vector<BigUInt> products;
  allocs.reserve(operands.size());
  products.reserve(operands.size());
  scheduler
      .submit([&](backend::MultiplierBackend& engine) {
        // Warm-up: shared engines, the lane workspace, the stats mutex.
        (void)engine.multiply(operands[0], operands[1]);
        (void)engine.multiply(operands[0], operands[1]);
        for (std::size_t i = 2; i + 1 < operands.size(); i += 2) {
          BigUInt product;
          const u64 count = allocations_in(
              [&] { product = engine.multiply(operands[i], operands[i + 1]); });
          allocs.push_back(count);
          products.push_back(std::move(product));
        }
        return BigUInt{};
      })
      .get();

  ASSERT_EQ(allocs.size(), 3u);
  for (std::size_t k = 0; k < allocs.size(); ++k) {
    EXPECT_EQ(allocs[k], 1u) << "product " << k;
    EXPECT_EQ(products[k], bigint::mul_karatsuba(operands[2 * k + 2], operands[2 * k + 3]));
  }
}

}  // namespace
}  // namespace hemul::ssa
