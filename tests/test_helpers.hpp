// Shared test fixtures: a fast, fully synthetic trace with a learnable
// structure (periodic per-CC throughput plus CA on/off square wave), the
// canned urban-drive scenario the determinism/integration suites pin
// their seeds to, and downsized generation/training configs — so each
// suite doesn't grow its own slightly-different copy of this setup.
#pragma once

#include <cmath>
#include <vector>

#include "eval/pipeline.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "traces/dataset.hpp"

namespace ca5g::test {

/// Trace where cc0 carries a sinusoid and cc1 toggles with a square
/// wave (a caricature of SCell add/remove); all PHY features are filled
/// consistently so feature-based models can exploit them.
inline sim::Trace synthetic_trace(std::size_t samples = 400, double phase = 0.0) {
  sim::Trace trace;
  trace.op = ran::OperatorId::kOpZ;
  trace.mobility = "synthetic";
  trace.step_s = 0.01;
  trace.cc_slots = 4;
  for (std::size_t i = 0; i < samples; ++i) {
    sim::TraceSample s;
    s.time_s = static_cast<double>(i) * trace.step_s;
    s.ccs.assign(4, sim::CcSample{});

    const double t = static_cast<double>(i) + phase;
    sim::CcSample& cc0 = s.ccs[0];
    cc0.active = true;
    cc0.is_pcell = true;
    cc0.band = phy::BandId::kN41;
    cc0.bandwidth_mhz = 100;
    cc0.rsrp_dbm = -85.0 + 10.0 * std::sin(t / 40.0);
    cc0.rsrq_db = -10.0;
    cc0.sinr_db = 20.0 + 8.0 * std::sin(t / 40.0);
    cc0.cqi = 12;
    cc0.rb = 200;
    cc0.layers = 4;
    cc0.mcs = 22;
    cc0.tput_mbps = 500.0 + 280.0 * std::sin(t / 40.0);

    const bool cc1_on = (static_cast<std::size_t>(t / 60.0) % 2) == 0;
    if (cc1_on) {
      sim::CcSample& cc1 = s.ccs[1];
      cc1.active = true;
      cc1.band = phy::BandId::kN25;
      cc1.bandwidth_mhz = 20;
      cc1.rsrp_dbm = -95.0;
      cc1.rsrq_db = -12.0;
      cc1.sinr_db = 12.0;
      cc1.cqi = 9;
      cc1.rb = 95;
      cc1.layers = 1;
      cc1.mcs = 16;
      cc1.tput_mbps = 150.0;
      // Mark the toggle step as an RRC event.
      const bool prev_on = (static_cast<std::size_t>((t - 1.0) / 60.0) % 2) == 0;
      if (!prev_on && i > 0)
        s.events.push_back({s.time_s, ran::RrcEventType::kSCellAdd, 1});
    }
    s.aggregate_tput_mbps = 0.0;
    for (const auto& cc : s.ccs) s.aggregate_tput_mbps += cc.tput_mbps;
    trace.samples.push_back(std::move(s));
  }
  return trace;
}

inline traces::Dataset synthetic_dataset(std::size_t traces_count = 2,
                                         std::size_t samples = 400) {
  std::vector<sim::Trace> list;
  for (std::size_t i = 0; i < traces_count; ++i)
    list.push_back(synthetic_trace(samples, 17.0 * static_cast<double>(i)));
  traces::DatasetSpec spec;
  spec.stride = 3;
  return traces::Dataset::from_traces(list, spec);
}

/// The canned full-simulation scenario: OpZ urban driving at 10 ms
/// steps. This is the fixture the golden-hash determinism tests pin, so
/// changing any default here requires the TESTING.md hash-update
/// procedure.
inline sim::ScenarioConfig urban_drive_scenario(std::uint64_t seed = 2024,
                                                double duration_s = 5.0) {
  sim::ScenarioConfig config;
  config.op = ran::OperatorId::kOpZ;
  config.env = radio::Environment::kUrbanMacro;
  config.mobility = sim::Mobility::kDriving;
  config.duration_s = duration_s;
  config.step_s = 0.01;
  config.seed = seed;
  return config;
}

/// Downsized dataset generation for pipeline tests (seconds, not the
/// minutes the real Table 4 sizes take).
inline eval::GenerationConfig tiny_generation(std::size_t traces = 2,
                                              double short_s = 8.0,
                                              double long_s = 40.0,
                                              std::size_t stride = 10) {
  eval::GenerationConfig gen;
  gen.traces = traces;
  gen.short_trace_duration_s = short_s;
  gen.long_trace_duration_s = long_s;
  gen.short_stride = stride;
  return gen;
}

/// Downsized deep-model training config: large enough to beat the naive
/// baselines on the synthetic datasets, small enough for unit tests.
inline predictors::TrainConfig tiny_train_config() {
  predictors::TrainConfig config;
  config.epochs = 16;
  config.hidden = 24;
  config.layers = 1;
  config.batch_size = 32;
  return config;
}

}  // namespace ca5g::test
