#pragma once

#include <memory>
#include <string>

#include "backend/hw_backend.hpp"
#include "backend/registry.hpp"
#include "core/scheduler.hpp"
#include "fhe/evaluator.hpp"
#include "hw/accel/accelerator.hpp"
#include "ntt/plan.hpp"
#include "ssa/params.hpp"

namespace hemul::testutil {

/// A downsized simulated accelerator that multiplies operands of up to
/// `operand_bits` bits exactly: by default 4096 bits -- the toy DGHV
/// scheme's ciphertexts -- on a 512-point pipeline (plan 8*8*8); wider
/// operands widen the first radix (8192 bits: 1024 points, 16*8*8), up to
/// the hardware's radix-64 limit (4096 points). Suites that sweep every
/// registered backend run their "hw" arms on it: simulating the 64K-point
/// paper machine per product costs minutes under sanitizers, while the
/// paper-size machine keeps its own coverage in test_hw_accel and
/// test_hw_pipeline. Both sides of an hw comparison must use this same
/// config.
inline hw::AcceleratorConfig small_hw_config(std::size_t operand_bits = 4096) {
  hw::AcceleratorConfig config = hw::AcceleratorConfig::paper();
  config.ssa = ssa::SsaParams::for_bits(operand_bits);
  config.ntt.plan =
      ntt::NttPlan::from_radices({static_cast<u32>(config.ssa.transform_size / 64), 8, 8});
  return config;
}

/// Calls body(backend_name, workers, evaluator) once per execution path of
/// the wavefront evaluator: every registered backend on the engine path
/// (workers == 0) and on schedulers with 1 and 4 lanes, the "hw" arms on
/// small_hw_config().
template <class Body>
void for_each_execution_path(Body&& body) {
  for (const std::string& name : backend::Registry::instance().names()) {
    {
      fhe::Evaluator evaluator(name == "hw"
                                   ? std::make_shared<backend::HwBackend>(small_hw_config())
                                   : backend::make_backend(name));
      body(name, 0u, evaluator);
    }
    for (const unsigned workers : {1u, 4u}) {
      core::Config config;
      config.backend_name = name;
      config.num_workers = workers;
      if (name == "hw") config.hardware = small_hw_config();
      core::Scheduler scheduler(config);
      fhe::Evaluator evaluator(scheduler);
      body(name, workers, evaluator);
    }
  }
}

}  // namespace hemul::testutil
