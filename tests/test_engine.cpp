// Integration-level tests for the simulation engine: trace structure,
// determinism, CA dynamics, band locking, and scenario variants.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "sim/engine.hpp"

namespace {

using namespace ca5g;

sim::ScenarioConfig base_config() {
  sim::ScenarioConfig config;
  config.op = ran::OperatorId::kOpZ;
  config.env = radio::Environment::kUrbanMacro;
  config.mobility = sim::Mobility::kDriving;
  config.duration_s = 20.0;
  config.step_s = 0.01;
  config.seed = 42;
  return config;
}

TEST(Engine, TraceShape) {
  const auto trace = sim::run_scenario(base_config());
  EXPECT_EQ(trace.samples.size(), 2000u);
  EXPECT_EQ(trace.cc_slots, 4u);
  for (const auto& s : trace.samples) {
    EXPECT_EQ(s.ccs.size(), 4u);
    double sum = 0.0;
    for (const auto& cc : s.ccs) {
      if (!cc.active) {
        EXPECT_DOUBLE_EQ(cc.tput_mbps, 0.0);
        continue;
      }
      EXPECT_GE(cc.cqi, 0);
      EXPECT_LE(cc.cqi, 15);
      EXPECT_GE(cc.mcs, 0);
      EXPECT_LE(cc.mcs, 27);
      EXPECT_GE(cc.layers, 0);
      EXPECT_LE(cc.layers, 4);
      EXPECT_GE(cc.bler, 0.0);
      EXPECT_LE(cc.bler, 1.0);
      EXPECT_LT(cc.rsrp_dbm, -20.0);
      EXPECT_GT(cc.rsrp_dbm, -160.0);
      sum += cc.tput_mbps;
    }
    // Aggregate ≤ sum of CC throughputs (multiplexing inefficiency).
    EXPECT_LE(s.aggregate_tput_mbps, sum + 1e-6);
    EXPECT_GE(s.aggregate_tput_mbps, 0.0);
  }
}

TEST(Engine, DeterministicForSeed) {
  const auto a = sim::run_scenario(base_config());
  const auto b = sim::run_scenario(base_config());
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); i += 97) {
    EXPECT_DOUBLE_EQ(a.samples[i].aggregate_tput_mbps, b.samples[i].aggregate_tput_mbps);
    EXPECT_EQ(a.samples[i].active_cc_count(), b.samples[i].active_cc_count());
  }
}

TEST(Engine, DifferentSeedsDiffer) {
  auto config = base_config();
  const auto a = sim::run_scenario(config);
  config.seed = 43;
  const auto b = sim::run_scenario(config);
  EXPECT_NE(common::mean(a.aggregate_series()), common::mean(b.aggregate_series()));
}

TEST(Engine, OpZDrivingUsesCa) {
  const auto trace = sim::run_scenario(base_config());
  const auto cc_counts = trace.cc_count_series();
  EXPECT_GT(common::mean(cc_counts), 1.5);  // OpZ aggregates aggressively
  EXPECT_LE(common::max_value(cc_counts), 4.0);
}

TEST(Engine, RrcEventsFireDuringDrive) {
  auto config = base_config();
  config.duration_s = 40.0;
  const auto trace = sim::run_scenario(config);
  std::size_t events = 0;
  for (const auto& s : trace.samples) events += s.events.size();
  EXPECT_GT(events, 2u);
}

TEST(Engine, BandLockRestrictsService) {
  auto config = base_config();
  config.band_lock = {phy::BandId::kN41};
  const auto trace = sim::run_scenario(config);
  for (const auto& s : trace.samples)
    for (const auto& cc : s.ccs) {
      if (cc.active) {
        EXPECT_EQ(cc.band, phy::BandId::kN41);
      }
    }
}

sim::Trace ideal_condition_trace() {
  auto config = base_config();
  config.mobility = sim::Mobility::kStationary;
  config.duration_s = 30.0;
  // Ideal channel condition = line of sight to the richest CA site.
  ran::DeploymentParams params;
  params.seed = config.seed * 977 + 13;
  const auto dep = ran::make_deployment(config.op, config.env, params);
  const auto& site = dep.sites[ran::best_ca_site(dep, phy::Rat::kNr)];
  config.stationary_position = radio::Position{site.pos.x + 60.0, site.pos.y + 25.0};
  sim::SimulationEngine engine(dep, config);
  return engine.run();
}

TEST(Engine, StationaryIdealConditionHitsHighThroughput) {
  const auto trace = ideal_condition_trace();
  const auto agg = trace.aggregate_series();
  // Paper anchor: OpZ 4CC FR1 peaks at ≈1.7 Gbps, averages ≈1+ Gbps.
  EXPECT_GT(common::max_value(agg), 1200.0);
  EXPECT_LT(common::max_value(agg), 2600.0);
  EXPECT_GT(common::mean(agg), 550.0);
}

TEST(Engine, ThroughputVariabilityMatchesPaper) {
  const auto trace = ideal_condition_trace();
  const auto agg = trace.aggregate_series();
  const double cv = common::stddev(agg) / common::mean(agg);
  // Paper §3.3: 4CC mean 700 / std 331 → cv ≈ 0.47.
  EXPECT_GT(cv, 0.2);
  EXPECT_LT(cv, 0.8);
}

TEST(Engine, IndoorReducesThroughput) {
  auto outdoor_config = base_config();
  outdoor_config.mobility = sim::Mobility::kWalking;
  outdoor_config.duration_s = 30.0;
  const auto outdoor = sim::run_scenario(outdoor_config);

  auto indoor_config = outdoor_config;
  indoor_config.env = radio::Environment::kIndoor;
  indoor_config.ue_indoor = true;
  const auto indoor = sim::run_scenario(indoor_config);

  EXPECT_LT(common::mean(indoor.aggregate_series()),
            common::mean(outdoor.aggregate_series()));
}

TEST(Engine, LteModeProducesLteTrace) {
  auto config = base_config();
  config.rat = phy::Rat::kLte;
  config.cc_slots = 5;
  config.duration_s = 10.0;
  const auto trace = sim::run_scenario(config);
  double peak = 0.0;
  for (const auto& s : trace.samples) {
    for (const auto& cc : s.ccs) {
      if (cc.active) {
        EXPECT_EQ(phy::band_info(cc.band).rat, phy::Rat::kLte);
      }
    }
    peak = std::max(peak, s.aggregate_tput_mbps);
  }
  // 4G CA peaks well below 5G but should clear tens of Mbps.
  EXPECT_GT(peak, 50.0);
  EXPECT_LT(peak, 1000.0);
}

TEST(Engine, ModemCapabilityLimitsCcCount) {
  auto config = base_config();
  config.modem = ue::ModemModel::kX60;  // 2CC FR1
  const auto trace = sim::run_scenario(config);
  EXPECT_LE(common::max_value(trace.cc_count_series()), 2.0);
}

TEST(Engine, InvalidConfigThrows) {
  auto config = base_config();
  config.step_s = 0.0;
  const auto dep = ran::make_deployment(config.op, config.env, {});
  EXPECT_THROW(sim::SimulationEngine(dep, config), common::CheckError);
}

}  // namespace
