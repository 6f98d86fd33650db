#include "sim/sweep.hpp"

#include <chrono>
#include <utility>

#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/trace_io.hpp"

namespace ca5g::sim {

ScenarioConfig SweepUnit::scenario(const SweepSpec& spec) const {
  ScenarioConfig config;
  config.op = op;
  config.mobility = mobility;
  config.env = spec.env;
  config.ue_indoor = spec.env == radio::Environment::kIndoor;
  config.duration_s = spec.duration_s;
  config.step_s = spec.step_s;
  config.seed = seed;
  return config;
}

std::string SweepUnit::label() const {
  return ran::operator_name(op) + "/" + mobility_name(mobility) + "/ue" +
         std::to_string(ue);
}

std::vector<SweepUnit> enumerate_units(const SweepSpec& spec) {
  CA5G_CHECK_MSG(!spec.ops.empty() && !spec.mobilities.empty() && spec.ues_per_cell > 0,
                 "empty sweep spec");
  const common::Rng root(spec.seed);
  std::vector<SweepUnit> units;
  units.reserve(spec.ops.size() * spec.mobilities.size() * spec.ues_per_cell);
  std::size_t index = 0;
  for (const auto op : spec.ops) {
    for (const auto mobility : spec.mobilities) {
      for (std::size_t ue = 0; ue < spec.ues_per_cell; ++ue) {
        SweepUnit unit;
        unit.index = index;
        unit.op = op;
        unit.mobility = mobility;
        unit.ue = ue;
        // Substream derivation is a pure function of (spec.seed, index):
        // no shared RNG state crosses units, so parallel execution order
        // cannot perturb any unit's randomness.
        unit.seed = root.substream(index).next_u64();
        units.push_back(unit);
        ++index;
      }
    }
  }
  return units;
}

SweepResult run_sweep(const SweepSpec& spec) {
  CA5G_METRIC_COUNTER(units_total, "sweep.units_total");
  CA5G_METRIC_HISTOGRAM(unit_ns, "sweep.unit_ns");
  CA5G_METRIC_HISTOGRAM(wall_ns, "sweep.wall_ns");
  CA5G_METRIC_GAUGE(pool_workers, "pool.workers_count");
  CA5G_METRIC_COUNTER(pool_tasks, "pool.tasks_total");

  const auto units = enumerate_units(spec);
  SweepResult result;
  result.units.resize(units.size());
  if (spec.keep_traces) result.traces.resize(units.size());

  const std::size_t threads =
      spec.threads == 0 ? common::default_thread_count() : spec.threads;
  result.threads_used = threads;
  pool_workers.set(static_cast<double>(threads));

  const auto run_unit = [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    Trace trace = run_scenario(units[i].scenario(spec));

    SweepUnitResult& out = result.units[i];  // slot i is exclusively ours
    out.unit = units[i];
    out.trace_hash = trace_hash(trace);
    out.samples = trace.samples.size();
    const auto agg = trace.aggregate_series();
    out.mean_tput_mbps = common::mean(agg);
    out.peak_tput_mbps = common::max_value(agg);
    out.mean_cc_count = common::mean(trace.cc_count_series());
    if (spec.keep_traces) result.traces[i] = std::move(trace);

    units_total.inc();
    pool_tasks.inc();
    unit_ns.observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  };

  const auto sweep_t0 = std::chrono::steady_clock::now();
  common::parallel_for(threads, units.size(), run_unit);
  const auto wall = std::chrono::steady_clock::now() - sweep_t0;
  result.wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(wall).count();
  wall_ns.observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count()));

  // Order-fixed FNV-style combine: unit order is the enumeration order,
  // never the completion order, so the fleet hash is thread-invariant.
  std::uint64_t fleet = 0xCBF29CE484222325ULL;
  for (const auto& u : result.units) {
    fleet ^= u.trace_hash;
    fleet *= 0x100000001B3ULL;
  }
  result.fleet_hash = fleet;
  return result;
}

}  // namespace ca5g::sim
