#include "workload.hpp"

#include <cstdlib>
#include <stdexcept>

#include "fhe/circuits.hpp"
#include "fhe/serialize.hpp"

namespace perfbench {

using namespace hemul;

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    parts.push_back(text.substr(start, end == std::string::npos ? std::string::npos
                                                                : end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return parts;
}

double to_double(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') throw std::invalid_argument("bad number for " + flag);
  return v;
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const char* v = argv[++i];
    if (arg == "--router") {
      o.router = v;
    } else if (arg == "--params") {
      o.params_name = v;
    } else if (arg == "--tenants") {
      o.tenants = static_cast<unsigned>(to_double(arg, v));
    } else if (arg == "--connections") {
      o.connections = static_cast<unsigned>(to_double(arg, v));
    } else if (arg == "--circuits") {
      o.circuits = split(v, ',');
    } else if (arg == "--assign") {
      const std::string mode = v;
      if (mode != "tenant" && mode != "request") throw std::invalid_argument("bad --assign");
      o.per_tenant_circuits = mode == "tenant";
    } else if (arg == "--loop") {
      const std::string mode = v;
      if (mode != "closed" && mode != "open") throw std::invalid_argument("bad --loop");
      o.open_loop = mode == "open";
    } else if (arg == "--rate") {
      o.rate = to_double(arg, v);
    } else if (arg == "--seed") {
      o.seed = static_cast<u64>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--seconds") {
      o.seconds = to_double(arg, v);
    } else if (arg == "--trace") {
      o.trace = to_double(arg, v) != 0.0;
    } else if (arg == "--lanes") {
      o.lanes = static_cast<unsigned>(to_double(arg, v));
    } else if (arg == "--deadline-ms") {
      o.deadline_ms = to_double(arg, v);
    } else if (arg == "--pool") {
      o.pool = static_cast<unsigned>(to_double(arg, v));
    } else if (arg == "--bitexact") {
      o.bitexact = static_cast<unsigned>(to_double(arg, v));
    } else if (arg == "--out") {
      o.out = v;
    } else if (arg == "--spans") {
      o.spans = v;
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (o.router.empty() || o.params_name.empty() || o.circuits.empty() || o.tenants == 0 ||
      o.connections == 0 ||
      o.seconds <= 0.0 || o.lanes == 0 || o.pool == 0 ||
      (o.open_loop && o.rate <= 0.0) || (!o.setup_only && o.out.empty())) {
    throw std::invalid_argument(
        "usage: perfbench_gen --router HOST:PORT --params toy|medium|paper --tenants N\n"
        "         [--connections N]\n"
        "         --circuits and,mul/2/carry-save,... [--assign tenant|request]\n"
        "         [--loop closed|open] [--rate R] --seed S --seconds T\n"
        "         [--trace 0|1] [--lanes N] [--deadline-ms MS] [--pool N] [--bitexact K]\n"
        "         (--setup-only | --out FILE [--spans FILE])");
  }
  return o;
}

fhe::DghvParams params_by_name(const std::string& name) {
  if (name == "toy") return fhe::DghvParams::toy();
  if (name == "medium") return fhe::DghvParams::medium();
  if (name == "paper") return fhe::DghvParams::small_paper();
  throw std::invalid_argument("unknown parameter set " + name);
}

u64 derive_seed(u64 seed, u64 stream) {
  // splitmix64 finalizer over (seed, stream): distinct streams never share
  // a sequence, and the same pair always yields the same seed.
  u64 z = seed * 0x9E3779B97F4A7C15ull + (stream + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Circuit Circuit::parse(const std::string& name) {
  Circuit c;
  c.name = name;
  const std::vector<std::string> parts = split(name, '/');
  if (parts.size() == 1 && parts[0] == "and") {
    c.spec.kind = core::CircuitKind::kAnd;
    c.spec.width = 1;
    c.operand_bits = 1;
    return c;
  }
  if (parts.size() != 3) throw std::invalid_argument("circuit must be and or KIND/W/LOWERING");
  c.spec = core::CircuitSpec::parse(parts[0], static_cast<unsigned>(std::stoul(parts[1])),
                                    parts[2]);
  if (c.spec.kind != core::CircuitKind::kMul && c.spec.kind != core::CircuitKind::kAdder) {
    throw std::invalid_argument("the benchmark sends and, mul and adder circuits only");
  }
  c.operand_bits = c.spec.width;
  return c;
}

u64 Circuit::expected(u64 x, u64 y) const {
  switch (spec.kind) {
    case core::CircuitKind::kAnd:
      return x & y;
    case core::CircuitKind::kMul:
      return x * y;
    default:
      return x + y;  // kAdder: w sum bits plus the carry
  }
}

void Tenant::fill_pool(unsigned per_bit) {
  for (unsigned bit = 0; bit < 2; ++bit) {
    for (unsigned k = 0; k < per_bit; ++k) {
      pool[bit].push_back(scheme->encrypt(bit == 1));
      pool_bytes[bit].push_back(fhe::encode_ciphertexts(std::span(&pool[bit].back(), 1)));
    }
  }
}

Draw draw_request(util::Rng& rng, const Tenant& tenant, unsigned tenant_index,
                  unsigned circuit, const Circuit& shape) {
  Draw d;
  d.tenant = tenant_index;
  d.circuit = circuit;
  const u64 limit = u64{1} << shape.operand_bits;
  d.x = rng.below(limit);
  d.y = rng.below(limit);
  const u64 pool_size = tenant.pool[0].size();
  for (unsigned i = 0; i < 2 * shape.operand_bits; ++i) {
    d.picks.push_back(static_cast<u32>(rng.below(pool_size)));
  }
  return d;
}

namespace {

unsigned input_bit(const Circuit& shape, const Draw& draw, std::size_t i) {
  const u64 value = i < shape.operand_bits ? draw.x : draw.y;
  return static_cast<unsigned>((value >> (i % shape.operand_bits)) & 1u);
}

}  // namespace

std::vector<fhe::Ciphertext> draw_inputs(const Tenant& tenant, const Circuit& shape,
                                         const Draw& draw) {
  std::vector<fhe::Ciphertext> inputs;
  inputs.reserve(draw.picks.size());
  for (std::size_t i = 0; i < draw.picks.size(); ++i) {
    inputs.push_back(tenant.pool[input_bit(shape, draw, i)][draw.picks[i]]);
  }
  return inputs;
}

core::Request build_request(const Tenant& tenant, const Circuit& shape, const Draw& draw) {
  core::Request request;
  request.spec = shape.spec;
  for (std::size_t i = 0; i < draw.picks.size(); ++i) {
    const fhe::Bytes& frame = tenant.pool_bytes[input_bit(shape, draw, i)][draw.picks[i]];
    request.inputs.insert(request.inputs.end(), frame.begin(), frame.end());
  }
  return request;
}

u64 decrypt_outputs(const Tenant& tenant, const core::Response& response) {
  const std::vector<fhe::Ciphertext> outputs = fhe::decode_ciphertexts(response.outputs);
  return fhe::decrypt_int(*tenant.scheme, fhe::EncryptedInt(outputs.begin(), outputs.end()));
}

}  // namespace perfbench
