#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fhe/dghv.hpp"
#include "fhe/params.hpp"
#include "service/request.hpp"
#include "util/rng.hpp"

namespace perfbench {

using hemul::i64;
using hemul::u32;
using hemul::u64;

/// Everything the generator is told on its command line. The workload
/// table itself lives in perfbench/workloads.py; the generator only runs
/// what it is given.
struct Options {
  std::string router;             ///< host:port of the fleet's front door
  std::string params_name;        ///< toy | medium | paper
  unsigned tenants = 1;
  unsigned connections = 1;       ///< router connections; tenant t uses t % connections
  std::vector<std::string> circuits;  ///< "and", "mul/2/carry-save", ...
  bool per_tenant_circuits = true;    ///< tenant t always sends circuits[t % k]
  bool open_loop = false;
  double rate = 0.0;  ///< open loop: Poisson arrivals per second
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned lanes = 2;         ///< PE lanes per shard (for the wavefront replay)
  double deadline_ms = 0.0;   ///< per-request client budget (0 = none)
  unsigned pool = 8;          ///< pre-encrypted ciphertexts per bit value
  unsigned bitexact = 0;      ///< responses re-checked against Dghv::multiply
  bool setup_only = false;    ///< stop once every session is ready
  std::string out;            ///< result JSON path
  std::string spans;          ///< span JSON path (trace mode)
};

/// Parses argv; throws std::invalid_argument with a usage hint on error.
Options parse_options(int argc, char** argv);

hemul::fhe::DghvParams params_by_name(const std::string& name);

/// Independent, reproducible seed for one purpose of one run.
u64 derive_seed(u64 seed, u64 stream);

/// A builtin circuit the workload sends, with its plaintext semantics.
struct Circuit {
  std::string name;
  hemul::core::CircuitSpec spec;
  unsigned operand_bits = 1;  ///< bits of each of the two plaintext operands

  static Circuit parse(const std::string& name);
  /// The plaintext the decrypted outputs must equal.
  [[nodiscard]] u64 expected(u64 x, u64 y) const;
};

/// One tenant: the session the fleet opened, the client-side key context
/// rebuilt from the shipped keys, and a pool of pre-encrypted bits that
/// requests are assembled from (encryption stays outside the timed window).
struct Tenant {
  hemul::core::SessionId session = 0;
  std::unique_ptr<hemul::fhe::Dghv> scheme;
  unsigned circuit = 0;  ///< per-tenant circuit index (when assigned per tenant)
  std::vector<hemul::fhe::Ciphertext> pool[2];
  std::vector<hemul::fhe::Bytes> pool_bytes[2];

  /// Encrypts `per_bit` fresh ciphertexts of 0 and of 1.
  void fill_pool(unsigned per_bit);
};

/// The plaintext choice of one request and the pool entries carrying it.
struct Draw {
  unsigned tenant = 0;
  unsigned circuit = 0;
  u64 x = 0;
  u64 y = 0;
  std::vector<u32> picks;  ///< pool index of every input bit (x bits, then y)
};

/// Draws the next request of `tenant` from `rng`.
Draw draw_request(hemul::util::Rng& rng, const Tenant& tenant, unsigned tenant_index,
                  unsigned circuit, const Circuit& shape);

/// The input ciphertexts of a draw, in circuit input order.
std::vector<hemul::fhe::Ciphertext> draw_inputs(const Tenant& tenant, const Circuit& shape,
                                                const Draw& draw);

/// Assembles the wire request of a draw from the pre-encoded pool.
hemul::core::Request build_request(const Tenant& tenant, const Circuit& shape,
                                   const Draw& draw);

/// Decrypts a response's outputs (little-endian) with the tenant's key.
u64 decrypt_outputs(const Tenant& tenant, const hemul::core::Response& response);

}  // namespace perfbench
