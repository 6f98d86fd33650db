// Fleet-scale sweep driver: runs N independent (operator, mobility, UE,
// seed) simulations concurrently on the shared thread pool
// (common/thread_pool) — the reproduction's stand-in for the paper's
// 9-phone × 3-operator × 790 km campaign, scaled to thousands of UEs.
//
// Determinism contract: unit i's scenario seed is derived from the sweep
// seed via Rng::substream(i), a pure function of (seed, i); each unit
// writes only its own result slot. Consequently the per-unit trace
// hashes — and the combined fleet hash — are bit-identical for any
// --threads value (enforced by tests/test_determinism.cpp and CI's TSan
// `parallel` stage).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace ca5g::sim {

/// What to sweep: the cross product ops × mobilities × ues_per_cell.
struct SweepSpec {
  std::vector<ran::OperatorId> ops = {ran::OperatorId::kOpX, ran::OperatorId::kOpY,
                                      ran::OperatorId::kOpZ};
  std::vector<Mobility> mobilities = {Mobility::kWalking, Mobility::kDriving};
  std::size_t ues_per_cell = 4;   ///< UEs simulated per (op, mobility) cell
  double duration_s = 10.0;
  double step_s = 0.01;
  radio::Environment env = radio::Environment::kUrbanMacro;
  std::uint64_t seed = 2024;
  std::size_t threads = 0;        ///< 0 = common::default_thread_count()
  bool keep_traces = false;       ///< retain full traces in SweepResult
};

/// One unit of work: a fully specified scenario plus its identity.
struct SweepUnit {
  std::size_t index = 0;          ///< position in enumeration order
  ran::OperatorId op = ran::OperatorId::kOpZ;
  Mobility mobility = Mobility::kDriving;
  std::size_t ue = 0;             ///< UE ordinal within its (op, mobility) cell
  std::uint64_t seed = 0;         ///< derived scenario seed (substream of spec.seed)

  [[nodiscard]] ScenarioConfig scenario(const SweepSpec& spec) const;
  [[nodiscard]] std::string label() const;
};

/// Per-unit outcome: the trace fingerprint plus headline statistics.
struct SweepUnitResult {
  SweepUnit unit;
  std::uint64_t trace_hash = 0;
  std::size_t samples = 0;
  double mean_tput_mbps = 0.0;
  double peak_tput_mbps = 0.0;
  double mean_cc_count = 0.0;
};

struct SweepResult {
  std::vector<SweepUnitResult> units;  ///< in enumeration order
  std::uint64_t fleet_hash = 0;        ///< order-fixed combine of unit hashes
  double wall_s = 0.0;
  std::size_t threads_used = 0;
  std::uint64_t pool_steals = 0;       ///< always 0: the pool does not steal
  std::vector<Trace> traces;           ///< unit-indexed, when spec.keep_traces
};

/// Deterministic enumeration: for op in ops, mobility in mobilities,
/// ue in [0, ues_per_cell), with seeds from Rng(spec.seed).substream(i).
[[nodiscard]] std::vector<SweepUnit> enumerate_units(const SweepSpec& spec);

/// Run every unit on a pool of spec.threads threads (1 runs inline on the
/// caller). Exports sweep.* and pool.* metrics through the obs registry.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec);

}  // namespace ca5g::sim
