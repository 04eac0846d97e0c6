#include "layers.hpp"

#include <algorithm>
#include <span>

#include "backend/registry.hpp"
#include "core/accelerator.hpp"
#include "core/scheduler.hpp"
#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/graph.hpp"
#include "fhe/serialize.hpp"
#include "json.hpp"
#include "ntt/four_step.hpp"
#include "ssa/multiply.hpp"
#include "ssa/params.hpp"
#include "ssa/resident.hpp"

namespace perfbench {

using namespace hemul;

i64 Spans::add(std::string name, Clock::time_point start, Clock::time_point end, i64 parent,
               u64 request) {
  return add_us(std::move(name), us_since_origin(start), us_since_origin(end), parent,
                request);
}

i64 Spans::add_us(std::string name, double start_us, double end_us, i64 parent,
                  u64 request) {
  spans_.push_back({std::move(name), start_us, end_us, parent, request});
  return static_cast<i64>(spans_.size()) - 1;
}

void Spans::set_end(i64 id, Clock::time_point end) {
  spans_[static_cast<std::size_t>(id)].end_us = us_since_origin(end);
}

double Spans::us_since_origin(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

bool Spans::write(const std::string& path) const {
  Json j;
  j.begin_array();
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const Span& s = spans_[id];
    j.begin_object()
        .field("id", static_cast<u64>(id))
        .field("name", s.name)
        .field("start_us", s.start_us)
        .field("end_us", s.end_us)
        .field("parent", s.parent)
        .field("request", s.request)
        .end_object();
  }
  j.end_array();
  return j.write(path);
}

namespace {

double elapsed_ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// How long to keep repeating one timed call.
struct Reps {
  double budget_ms;
  unsigned min_reps;
  unsigned max_reps;
  bool warm = true;  ///< one untimed call first (lazy tables, caches)
};

/// Keeps values observable so timed calls are never optimized away.
volatile std::size_t g_sink = 0;

/// Records the circuit of `spec` over `inputs`: the same public Graph calls
/// core::Service makes when it admits a request of that shape.
std::vector<fhe::Wire> record_circuit(fhe::Graph& g, const core::CircuitSpec& spec,
                                      std::span<const fhe::Ciphertext> inputs,
                                      const fhe::Ciphertext& zero) {
  g.set_lowering(spec.lowering);
  const std::vector<fhe::Wire> wires = g.inputs(inputs);
  const std::span<const fhe::Wire> all(wires);
  const unsigned w = spec.width;
  switch (spec.kind) {
    case core::CircuitKind::kAnd:
      return {g.gate_and(wires[0], wires[1])};
    case core::CircuitKind::kMul:
      return g.multiply(all.first(w), all.subspan(w, w), g.input(zero));
    default: {
      fhe::Graph::AddResult r = g.add(all.first(w), all.subspan(w, w), g.input(zero));
      std::vector<fhe::Wire> out = std::move(r.sum);
      out.push_back(r.carry_out);
      return out;
    }
  }
}

class Replay {
 public:
  Replay(const std::vector<ReplaySample>& samples, Spans& spans, LayerTimes& out)
      : samples_(samples), spans_(spans), out_(out) {
    root_ = spans_.add_us("replay", spans_.us_since_origin(Clock::now()), 0.0,
                          Spans::kNoParent, 0);
  }

  /// Times fn(sample, rep) over the samples round-robin and records the
  /// median under `metric`; each timed call becomes a span.
  template <typename Fn>
  void measure(const std::string& metric, const Reps& reps, Fn&& fn) {
    if (reps.warm) fn(samples_.front(), 0u);
    std::vector<double> times;
    const auto begin = Clock::now();
    for (unsigned rep = 0;; ++rep) {
      const ReplaySample& sample = samples_[rep % samples_.size()];
      const auto t0 = Clock::now();
      fn(sample, rep);
      const auto t1 = Clock::now();
      spans_.add(span_name(metric), t0, t1, root_, sample.request);
      times.push_back(elapsed_ms(t0, t1));
      const unsigned done = rep + 1;
      if (done >= reps.max_reps) break;
      if (done >= reps.min_reps && elapsed_ms(begin, t1) >= reps.budget_ms) break;
    }
    record(metric, median(times), static_cast<unsigned>(times.size()));
  }

  void record(const std::string& metric, double value, unsigned reps) {
    out_.values.emplace_back(metric, value);
    out_.reps.emplace_back(metric, reps);
  }

  [[nodiscard]] i64 root() const noexcept { return root_; }

 private:
  /// "fhe.hom_mult_ms" -> span "fhe.hom_mult".
  static std::string span_name(const std::string& metric) {
    const std::size_t cut = metric.rfind('_');
    return cut == std::string::npos ? metric : metric.substr(0, cut);
  }

  const std::vector<ReplaySample>& samples_;
  Spans& spans_;
  LayerTimes& out_;
  i64 root_ = Spans::kNoParent;
};

}  // namespace

LayerTimes replay_layers(const Options& options, std::vector<Tenant>& tenants,
                         const std::vector<Circuit>& circuits,
                         const std::vector<ReplaySample>& samples, Spans& spans) {
  LayerTimes out;
  if (samples.empty()) return out;
  Replay replay(samples, spans, out);
  const fhe::DghvParams params = params_by_name(options.params_name);
  // The shards multiply on their lanes' "ssa" engine (hemul_shard's default
  // backend), whatever the size; the client contexts default to the auto
  // policy, which picks the classical multiplier below 100,000 bits. Time
  // the products on the engine the shards run.
  const std::shared_ptr<backend::MultiplierBackend> lane_engine = backend::make_backend("ssa");
  for (Tenant& tenant : tenants) tenant.scheme->set_backend(lane_engine);

  // Per-sample operands, materialized once outside every timed call.
  struct Operands {
    std::vector<fhe::Ciphertext> inputs;
    fhe::Ciphertext a, b;    ///< the first AND's operands (x bit 0, y bit 0)
    bigint::BigUInt product; ///< a * b, unreduced (2 gamma bits)
    fhe::Bytes request;      ///< the encoded wire request
  };
  std::vector<Operands> ops;
  for (const ReplaySample& s : samples) {
    const Tenant& tenant = tenants[s.draw.tenant];
    const Circuit& shape = circuits[s.draw.circuit];
    Operands o;
    o.inputs = draw_inputs(tenant, shape, s.draw);
    o.a = o.inputs[0];
    o.b = o.inputs[shape.operand_bits];
    o.product = tenant.scheme->engine()->multiply(o.a.value, o.b.value);
    o.request = core::encode_request(build_request(tenant, shape, s.draw));
    ops.push_back(std::move(o));
  }
  const auto op = [&](const ReplaySample& s) -> const Operands& {
    return ops[static_cast<std::size_t>(&s - samples.data())];
  };
  const auto scheme = [&](const ReplaySample& s) -> fhe::Dghv& {
    return *tenants[s.draw.tenant].scheme;
  };

  // --- fhe: key generation and the client's per-bit costs ---------------
  replay.measure("fhe.keygen_ms", {3000.0, 3, 10, false},
                 [&](const ReplaySample&, unsigned rep) {
                   const fhe::Dghv fresh(params, derive_seed(options.seed, 7000 + rep));
                   g_sink = g_sink + fresh.public_key().x0.bit_length();
                 });
  replay.measure("fhe.encrypt_ms", {300.0, 5, 400}, [&](const ReplaySample& s, unsigned rep) {
    g_sink = g_sink + scheme(s).encrypt((rep & 1u) != 0).value.bit_length();
  });
  replay.measure("fhe.decrypt_ms", {200.0, 5, 2000}, [&](const ReplaySample& s, unsigned) {
    g_sink = g_sink + static_cast<std::size_t>(scheme(s).decrypt(op(s).a));
  });

  // --- the homomorphic multiply, split into product and reduction -------
  replay.measure("backend.product_ms", {600.0, 5, 400}, [&](const ReplaySample& s, unsigned) {
    g_sink = g_sink + scheme(s).engine()->multiply(op(s).a.value, op(s).b.value).bit_length();
  });
  replay.measure("fhe.hom_mult_ms", {1000.0, 3, 400}, [&](const ReplaySample& s, unsigned) {
    g_sink = g_sink + scheme(s).multiply(op(s).a, op(s).b).value.bit_length();
  });
  replay.measure("bigint.divmod_ms", {1000.0, 3, 400}, [&](const ReplaySample& s, unsigned) {
    g_sink = g_sink + (op(s).product % scheme(s).public_key().x0).bit_length();
  });

  // --- ssa and ntt at the sizes the scheme and the lanes use ------------
  const ssa::SsaParams scheme_params = ssa::SsaParams::for_bits(params.gamma);
  replay.measure("ssa.multiply_ms", {500.0, 5, 400}, [&](const ReplaySample& s, unsigned) {
    g_sink = g_sink + ssa::multiply(op(s).a.value, op(s).b.value, scheme_params).bit_length();
  });
  // The service's resident rounds transform at the x0-sized parameters with
  // lazy-reduction headroom; time the transforms at exactly that size.
  const u64 n = ssa::SsaParams::for_bits(tenants.front().scheme->public_key().x0.bit_length(),
                                         ssa::kResidentHeadroomBits)
                    .transform_size;
  const ntt::FourStepNtt& engine = ntt::shared_four_step(n);
  util::Rng rng(derive_seed(options.seed, 7100));
  fp::FpVec data(n), scratch(n);
  for (fp::Fp& x : data) x = fp::Fp(rng.below(fp::kModulus));
  // NTT cost does not depend on the values, so the same buffer is
  // transformed repeatedly in place.
  replay.measure("ntt.forward_ms", {300.0, 9, 2000}, [&](const ReplaySample&, unsigned) {
    engine.forward_spectrum(data, scratch);
  });
  replay.measure("ntt.inverse_ms", {300.0, 9, 2000}, [&](const ReplaySample&, unsigned) {
    engine.inverse_from_spectrum(data, scratch);
  });
  g_sink = g_sink + data[0].value();
  replay.record("ntt.size", static_cast<double>(n), 0);

  // --- wire codec and admission (decode, record, level, audit) ----------
  replay.measure("fhe.codec_ms", {300.0, 5, 2000}, [&](const ReplaySample& s, unsigned) {
    const fhe::Bytes in = fhe::encode_ciphertexts(op(s).inputs);
    const std::vector<fhe::Ciphertext> back = fhe::decode_ciphertexts(in);
    const std::vector<fhe::Ciphertext> outputs = fhe::decode_ciphertexts(s.response.outputs);
    const fhe::Bytes out_bytes = fhe::encode_ciphertexts(outputs);
    g_sink = g_sink + back.size() + out_bytes.size();
  });
  replay.measure("fhe.admit_ms", {300.0, 5, 2000}, [&](const ReplaySample& s, unsigned) {
    const Tenant& tenant = tenants[s.draw.tenant];
    const core::Request request = core::decode_request(op(s).request);
    const std::vector<fhe::Ciphertext> inputs = fhe::decode_ciphertexts(request.inputs);
    const bigint::BigUInt& x0 = tenant.scheme->public_key().x0;
    for (const fhe::Ciphertext& c : inputs) {
      g_sink = g_sink + static_cast<std::size_t>(c.value < x0);
    }
    fhe::Graph g(*tenant.scheme);
    const std::vector<fhe::Wire> outputs =
        record_circuit(g, request.spec, inputs, tenant.pool[0].front());
    const fhe::EvalState state(g, outputs);
    g_sink = g_sink + state.max_level();
  });

  // --- wavefronts on a scheduler shaped like one shard ------------------
  core::Config config;
  config.backend_name = "ssa";
  config.num_workers = options.lanes;
  core::Scheduler scheduler(config);
  fhe::Evaluator evaluator(scheduler);
  std::vector<double> level_ms;
  const auto begin = Clock::now();
  for (unsigned rep = 0;; ++rep) {
    const ReplaySample& s = samples[rep % samples.size()];
    const Tenant& tenant = tenants[s.draw.tenant];
    const Circuit& shape = circuits[s.draw.circuit];
    fhe::Graph g(*tenant.scheme);
    const std::vector<fhe::Wire> outputs =
        record_circuit(g, shape.spec, op(s).inputs, tenant.pool[0].front());
    fhe::EvalReport report;
    const auto t0 = Clock::now();
    const std::vector<fhe::Ciphertext> result = evaluator.evaluate(g, outputs, &report);
    const auto t1 = Clock::now();
    spans.add("fhe.evaluate", t0, t1, replay.root(), s.request);
    if (fhe::decrypt_int(*tenant.scheme, fhe::EncryptedInt(result.begin(), result.end())) !=
        shape.expected(s.draw.x, s.draw.y)) {
      ++out.wrong_evaluations;
    }
    double sum = 0.0;
    for (const fhe::WavefrontStats& w : report.wavefronts) sum += w.wall_ms;
    if (!report.wavefronts.empty()) level_ms.push_back(sum / report.wavefronts.size());
    if (rep + 1 >= 3 && (rep + 1 >= 200 || elapsed_ms(begin, t1) >= 1000.0)) break;
  }
  replay.record("fhe.wavefront_ms", median(level_ms), static_cast<unsigned>(level_ms.size()));

  // --- the modelled accelerator (simulated time, deterministic) ---------
  const core::Accelerator accelerator;
  const hw::PerfBreakdown perf = accelerator.performance();
  replay.record("hw.mult_us", perf.mult_us(), 0);
  replay.record("hw.fft_us", perf.fft_us(), 0);
  replay.record("hw.dotprod_us", perf.dotprod_us(), 0);
  replay.record("hw.carry_us", perf.carry_us(), 0);
  spans.set_end(replay.root(), Clock::now());
  return out;
}

}  // namespace perfbench
