#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "fhe/graph.hpp"
#include "ssa/resident.hpp"

namespace hemul::core {
class Scheduler;
}

namespace hemul::fhe {

/// Transform accounting of one spectrum-resident evaluation. All counters
/// are incremented on the coordinator thread when results are installed, so
/// they are deterministic regardless of scheduler worker count.
struct ResidencyStats {
  u64 forward_transforms = 0;  ///< operand spectra entered (one per distinct wire)
  u64 inverse_transforms = 0;  ///< wires materialized out of the domain
  u64 pointwise_products = 0;  ///< AND gates executed as pointwise products
  u64 domain_additions = 0;    ///< XOR folds executed as pointwise additions
  u64 spectra_evicted = 0;     ///< resident entries dropped after last use
  u64 resident_peak = 0;       ///< high-water mark of simultaneously resident spectra
  u64 bound_flushes = 0;       ///< XOR folds demoted to eager by the reduction bound

  /// Transforms actually executed; the eager path pays ~3 per AND gate.
  [[nodiscard]] u64 transforms_executed() const noexcept {
    return forward_transforms + inverse_transforms;
  }
};

/// Execution statistics of one wavefront (all independent AND gates at one
/// multiplicative depth, issued as one round of lane tasks). On the
/// scheduler path lanes_used is a before/after delta of the scheduler-wide
/// lane counters, so it is accurate only when the scheduler is not shared
/// concurrently during the evaluation (pass no report to skip collecting
/// it entirely).
struct WavefrontStats {
  unsigned level = 0;  ///< multiplicative depth of the wavefront
  u64 and_gates = 0;   ///< gates batched at this depth
  /// Residency semantics: a miss enters an operand spectrum, a hit
  /// re-consumes one already resident (each gate touches two operands).
  /// Both read 0 when the evaluation did not run resident.
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  unsigned lanes_used = 0;  ///< PE lanes that ran >= 1 task (1 on a single engine)
  double wall_ms = 0.0;     ///< wall-clock of the wavefront
  // Spectrum-residency accounting (filled when the evaluation ran
  // resident; deterministic deltas of the coordinator-side counters).
  u64 spectra_cached = 0;      ///< forward transforms entered at this level
  u64 inverses_paid = 0;       ///< wires materialized out of the domain
  u64 folds = 0;               ///< XOR gates swept as pointwise additions
  i64 transforms_avoided = 0;  ///< 3 * and_gates - transforms executed
};

/// End-to-end report of one Evaluator::evaluate call.
struct EvalReport {
  std::size_t nodes = 0;       ///< nodes recorded in the graph
  std::size_t live_nodes = 0;  ///< reachable from the requested outputs
  std::size_t dead_nodes = 0;  ///< eliminated before execution
  u64 and_gates = 0;           ///< multiplications actually executed
  u64 xor_gates = 0;           ///< ciphertext additions executed
  unsigned levels = 0;         ///< multiplicative depth (= wavefront count)
  double max_noise_bits = 0.0;  ///< worst predicted residue over live wires
  bool decryptable = false;     ///< model verdict for every live wire
  bool spectrum_resident = false;  ///< wires stayed in the NTT domain
  ResidencyStats residency;        ///< totals (meaningful when resident)
  std::vector<WavefrontStats> wavefronts;

  [[nodiscard]] std::size_t wavefront_count() const noexcept { return wavefronts.size(); }
};

/// Thrown by the pre-execution check when the analytic NoiseModel predicts
/// that some live wire no longer decrypts -- *before* any multiplication
/// is spent on a computation whose result would be garbage.
class NoiseBudgetError : public std::runtime_error {
 public:
  NoiseBudgetError(const std::string& message, Wire wire, unsigned level,
                   double noise_bits, double budget_bits)
      : std::runtime_error(message),
        wire(wire),
        level(level),
        noise_bits(noise_bits),
        budget_bits(budget_bits) {}

  Wire wire;          ///< first offending wire (deepest predicted noise)
  unsigned level;     ///< its multiplicative depth
  double noise_bits;  ///< predicted residue bits
  double budget_bits; ///< decryptability bound (eta - 2)
};

struct EvalOptions {
  /// Run the NoiseModel decryptability check over every live wire before
  /// executing anything; throw NoiseBudgetError on the first violation.
  /// Disable to reproduce eager semantics (compute first, fail at
  /// decryption) -- e.g. for parity benchmarks past the noise budget.
  bool check_noise = true;
};

/// Runs body(k, engine) once for every k in [0, count) on some execution
/// lane's engine, returning only once every call has finished. Calls may
/// run concurrently; a body never throws.
using LaneBody = std::function<void(std::size_t, backend::MultiplierBackend&)>;
using LaneRunner = std::function<void(std::size_t count, const LaneBody& body)>;

/// The runner that submits each call to `scheduler` as one job and waits
/// for all of them (non-owning; the scheduler must outlive the runner).
[[nodiscard]] LaneRunner scheduler_lanes(core::Scheduler& scheduler);

class EvalState;

/// The level protocol, written once for every executor of a recorded
/// Graph: advances each state in `states` that is neither done nor faulted
/// by one level (its own next_level()). Every phase covers all the states
/// at once; each lane phase goes out as one round of lane tasks:
///   - resident states (enable_residency): forward transforms of operand
///     wires new to the NTT domain -> pointwise products of the level's AND
///     gates -> XOR folds as coordinator-side spectrum additions -> one
///     inverse per wire whose value leaves the domain;
///   - eager states: one product per AND gate.
/// Then every surviving state sweeps the level's remaining XOR gates,
/// evicts its spent spectra and moves to the next level. A lane task that
/// throws faults only its own state: the message is kept in a per-task
/// slot until the round drains, and the state keeps its first fault and
/// takes no further steps.
void step_level(std::span<EvalState* const> states, const LaneRunner& run);

/// The stepping core of wavefront evaluation, shared by every executor of
/// a recorded Graph: dead-node elimination from the requested outputs,
/// per-depth wavefront grouping, the pre-execution noise audit, and the
/// per-level protocol run by step_level. fhe::Evaluator drives one state to
/// completion; core::Service steps many states one coalesced round at a
/// time. Keeping the rules here is what guarantees served results stay
/// bit-exact against in-process evaluation.
///
/// Resident results are bit-exact against the eager protocol: spectrum sums
/// stand for sums of the same raw products, reduced by the same x0 at
/// materialization ((a mod x0) + (b mod x0) == a + b (mod x0)).
class EvalState {
 public:
  /// Validates the output wires, eliminates dead nodes, levels the live
  /// AND gates into wavefronts and sweeps level 0. No multiplication
  /// happens here.
  EvalState(const Graph& graph, std::span<const Wire> outputs);

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  // --- audit results (available before any execution) ---------------------
  [[nodiscard]] unsigned max_level() const noexcept { return max_level_; }
  [[nodiscard]] std::size_t live_nodes() const noexcept { return live_count_; }
  [[nodiscard]] u64 live_xor_gates() const noexcept { return live_xor_; }
  [[nodiscard]] double max_noise_bits() const noexcept { return max_noise_; }
  /// The live wire with the worst predicted residue.
  [[nodiscard]] Wire worst_wire() const noexcept { return Wire{worst_wire_}; }
  /// NoiseModel verdict over every live wire.
  [[nodiscard]] bool decryptable() const;

  // --- stepping ------------------------------------------------------------
  /// Live AND gates at one multiplicative depth (node ids into graph()).
  [[nodiscard]] const std::vector<u32>& wavefront(unsigned level) const;
  /// The level the next step_level round executes (levels run 1..max_level()).
  [[nodiscard]] unsigned next_level() const noexcept { return next_level_; }
  /// Every level has been stepped; outputs() is valid.
  [[nodiscard]] bool done() const noexcept { return next_level_ > max_level_; }
  /// A lane task of this state threw; fault() holds its message.
  [[nodiscard]] bool failed() const noexcept { return !fault_.empty(); }
  [[nodiscard]] const std::string& fault() const noexcept { return fault_; }

  /// One ciphertext per requested output wire, in order. Valid once done().
  [[nodiscard]] std::vector<Ciphertext> outputs() const;

  /// Switches the state to the spectrum-resident protocol (engines that
  /// speak spectrum handles only -- SsaBackend / "ssa" scheduler lanes) and
  /// plans residency: decides per wire whether it stays in the spectrum
  /// domain (static reduction-bound analysis included; over-bound XOR folds
  /// are demoted to eager and counted as bound_flushes). The state owns
  /// its wire spectra; each leaves right after its last consuming level.
  void enable_residency(const ssa::SsaParams& params);
  [[nodiscard]] bool residency_enabled() const noexcept { return residency_; }

  [[nodiscard]] const ResidencyStats& residency_stats() const noexcept { return rstats_; }

 private:
  friend void step_level(std::span<EvalState* const> states, const LaneRunner& run);

  /// Completes gate `id` with its raw product: reduces modulo the scheme's
  /// x0 and annotates the analytic noise estimate.
  void apply_product(u32 id, bigint::BigUInt product);
  /// Evaluates the live inputs/XOR additions at one depth (after the
  /// level's AND products are applied; the constructor sweeps level 0).
  void sweep_linear(unsigned level);

  /// Distinct operand wires of wavefront(level) gates that still need a
  /// forward transform (ascending wire id; deterministic).
  [[nodiscard]] std::vector<u32> spectrum_plan(unsigned level) const;
  void install_operand_spectrum(u32 wire, ssa::SpectrumHandle spectrum);
  [[nodiscard]] ssa::SpectrumHandle operand_spectrum(u32 wire) const;
  /// Installs the pointwise product spectrum of wavefront gate `id`.
  void install_product(u32 id, ssa::SpectrumHandle spectrum);
  /// Sweeps the level's foldable XOR gates as pointwise spectrum additions
  /// (coordinator-side; a fold is one O(N) vector addition).
  void fold_linear(unsigned level);
  /// Wires of this level whose values are consumed outside the spectrum
  /// domain (outputs, AND operands, eager-XOR operands) -- one inverse
  /// transform each (ascending wire id; deterministic).
  [[nodiscard]] std::vector<u32> materialize_plan(unsigned level) const;
  /// The product/sum spectrum standing for wire `id`.
  [[nodiscard]] ssa::SpectrumHandle wire_spectrum(u32 id) const;
  /// Completes a materialization with the raw integer the spectrum stood
  /// for: reduces modulo x0 and annotates the analytic noise estimate.
  void apply_materialized(u32 id, bigint::BigUInt raw);
  /// Drops every resident spectrum whose last consumer was this level
  /// (single-use operands leave after the wavefront that consumed them).
  void evict_spent_spectra(unsigned level);

  void publish(u32 wire, unsigned kind, ssa::SpectrumHandle spectrum);
  void evict(u32 wire, unsigned kind);

  const Graph* graph_;
  std::vector<Wire> output_wires_;
  std::vector<char> live_;
  std::vector<std::vector<u32>> wavefronts_;
  std::vector<Ciphertext> values_;
  std::size_t live_count_ = 0;
  u64 live_xor_ = 0;
  unsigned max_level_ = 0;
  double max_noise_ = 0.0;
  u32 worst_wire_ = Wire::kInvalid;
  unsigned next_level_ = 1;
  std::string fault_;  ///< first lane fault (empty while healthy)

  // Spectrum residency (set up by enable_residency).
  bool residency_ = false;
  ssa::SsaParams params_;
  /// Resident spectra by kind, then wire id: kind 0 holds operand spectra
  /// (forward of the reduced wire value, the only kind that may multiply),
  /// kind 1 product/sum spectra (raw, unreduced). Empty handle = absent.
  std::array<std::vector<ssa::SpectrumHandle>, 2> spectra_;
  std::vector<char> folded_;       ///< XOR swept in the spectrum domain
  std::vector<char> needs_value_;  ///< wire consumed outside the domain
  std::vector<std::vector<u32>> evict_operand_;   ///< kind-0 eviction per level
  std::vector<std::vector<u32>> evict_spectrum_;  ///< kind-1 eviction per level
  std::size_t resident_now_ = 0;  ///< spectra currently resident
  ResidencyStats rstats_;
};

/// Wavefront executor for a recorded Graph: dead nodes (not reachable from
/// the requested outputs) are eliminated, live AND gates are grouped by
/// multiplicative depth, and step_level runs each depth as one round of
/// lane tasks -- across the multi-PE core::Scheduler's lanes when one is
/// installed, inline on one engine otherwise. Spectrum residency engages
/// when the lanes (or the engine) run the software SSA engine.
///
/// Results are bit-exact against gate-at-a-time evaluation
/// (fhe::ReferenceBuilder): the same products are taken modulo the same
/// x0, only their grouping differs.
class Evaluator {
 public:
  /// Executes AND wavefronts on the graph's scheme engine.
  Evaluator() = default;

  /// Executes AND wavefronts on an explicit engine (any registered
  /// backend), overriding the scheme's.
  explicit Evaluator(std::shared_ptr<backend::MultiplierBackend> engine)
      : engine_(std::move(engine)) {}

  /// Executes each wavefront concurrently on a multi-PE scheduler
  /// (non-owning; the scheduler must outlive the evaluator).
  explicit Evaluator(core::Scheduler& scheduler) : scheduler_(&scheduler) {}

  /// Evaluates `outputs` (and everything they depend on), returning one
  /// ciphertext per requested wire, in order. Fills `report` when given.
  /// Throws NoiseBudgetError before execution when the audit vetoes the
  /// circuit, and std::runtime_error carrying the lane's message when a
  /// lane task throws (after that level's tasks have drained).
  std::vector<Ciphertext> evaluate(const Graph& graph, std::span<const Wire> outputs,
                                   EvalReport* report = nullptr,
                                   const EvalOptions& options = {});

 private:
  std::shared_ptr<backend::MultiplierBackend> engine_;
  core::Scheduler* scheduler_ = nullptr;
};

}  // namespace hemul::fhe
