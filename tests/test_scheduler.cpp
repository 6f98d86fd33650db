// Unit tests for the per-CC scheduler: link adaptation, load response,
// the Fig. 14 FDD layer drop under CA, and the Fig. 15 SCell throttle.
#include <gtest/gtest.h>
#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ran/scheduler.hpp"

namespace {

using namespace ca5g::ran;
using ca5g::common::Rng;
using ca5g::phy::BandId;
using ca5g::radio::LinkMeasurement;
using ca5g::ue::ModemModel;
using ca5g::ue::ue_capability;

Carrier carrier_of(BandId band, int bw, int scs) {
  Carrier c;
  c.band = band;
  c.bandwidth_mhz = bw;
  c.scs_khz = scs;
  return c;
}

LinkMeasurement link(double sinr_db, double rsrp = -85.0) {
  LinkMeasurement m;
  m.rsrp_dbm = rsrp;
  m.sinr_db = sinr_db;
  m.rsrq_db = -10.0;
  return m;
}

/// Average allocation over many draws to marginalize scheduler noise.
CcAllocation average_alloc(const Scheduler& sched, const Carrier& c,
                           const LinkMeasurement& m, const CaContext& ctx, double load,
                           int draws = 300) {
  Rng rng(99);
  CcAllocation mean{};
  double tput = 0.0, rb = 0.0, layers = 0.0, bler = 0.0;
  const auto capability = ue_capability(ModemModel::kX70);
  for (int i = 0; i < draws; ++i) {
    const auto a = sched.allocate(c, m, ctx, capability, load, rng);
    tput += a.tput_bps;
    rb += a.rb;
    layers += a.layers;
    bler += a.bler;
    mean.cqi = a.cqi;
    mean.mcs = a.mcs;
  }
  mean.tput_bps = tput / draws;
  mean.rb = static_cast<int>(rb / draws);
  mean.layers = static_cast<int>(std::lround(layers / draws));
  mean.bler = bler / draws;
  return mean;
}

TEST(Scheduler, RankThresholds) {
  EXPECT_EQ(Scheduler::rank_from_sinr(30.0), 4);
  EXPECT_EQ(Scheduler::rank_from_sinr(16.0), 3);
  EXPECT_EQ(Scheduler::rank_from_sinr(10.0), 2);
  EXPECT_EQ(Scheduler::rank_from_sinr(0.0), 1);
}

TEST(Scheduler, OutOfRangeChannelGetsNothing) {
  Scheduler sched;
  Rng rng(1);
  const auto a = sched.allocate(carrier_of(BandId::kN41, 100, 30), link(-14.0),
                                CaContext{}, ue_capability(ModemModel::kX70), 0.3, rng);
  EXPECT_EQ(a.cqi, 0);
  EXPECT_EQ(a.rb, 0);
  EXPECT_DOUBLE_EQ(a.tput_bps, 0.0);
}

TEST(Scheduler, GoodChannelGetsHighGrant) {
  Scheduler sched;
  const auto a = average_alloc(sched, carrier_of(BandId::kN41, 100, 30), link(30.0),
                               CaContext{}, 0.1);
  EXPECT_GE(a.cqi, 14);
  EXPECT_GE(a.mcs, 24);
  EXPECT_EQ(a.layers, 4);
  EXPECT_GT(a.rb, 180);      // most of 273 RBs
  EXPECT_GT(a.tput_bps, 5e8);  // hundreds of Mbps
}

TEST(Scheduler, LoadShrinksRbGrant) {
  Scheduler sched;
  const auto quiet = average_alloc(sched, carrier_of(BandId::kN41, 100, 30), link(30.0),
                                   CaContext{}, 0.05);
  const auto busy = average_alloc(sched, carrier_of(BandId::kN41, 100, 30), link(30.0),
                                  CaContext{}, 0.9);
  EXPECT_GT(quiet.rb, busy.rb + 40);
}

TEST(Scheduler, Fig14_FddLayersCollapseUnderCa) {
  // The paper's Fig. 14: n25 runs 3 layers alone but only 1 inside a
  // 3CC combination at the same RSRP/CQI.
  Scheduler sched;
  const auto alone = average_alloc(sched, carrier_of(BandId::kN25, 20, 15), link(28.0),
                                   CaContext{1, 20, true, false}, 0.2);
  EXPECT_EQ(alone.layers, 3);
  CaContext ca3;
  ca3.active_ccs = 3;
  ca3.aggregate_bw_mhz = 160;
  ca3.is_pcell = false;
  const auto in_ca = average_alloc(sched, carrier_of(BandId::kN25, 20, 15), link(28.0),
                                   ca3, 0.2);
  EXPECT_EQ(in_ca.layers, 1);
  // Throughput roughly drops with the rank (paper: 212 → ~100 Mbps).
  EXPECT_LT(in_ca.tput_bps, 0.6 * alone.tput_bps);
}

TEST(Scheduler, TddLayersSurviveCa) {
  Scheduler sched;
  CaContext ca4;
  ca4.active_ccs = 4;
  ca4.aggregate_bw_mhz = 180;
  ca4.is_pcell = true;
  const auto a = average_alloc(sched, carrier_of(BandId::kN41, 100, 30), link(30.0),
                               ca4, 0.2);
  EXPECT_EQ(a.layers, 4);
}

TEST(Scheduler, Fig15_ScellThrottledInWideBusyCombos) {
  // Same 40 MHz n41 SCell: full RBs in a 140 MHz combo, starved in a
  // 240 MHz combo when the cell is busy (paper Fig. 15).
  Scheduler sched;
  CaContext narrow;
  narrow.active_ccs = 2;
  narrow.aggregate_bw_mhz = 112;
  narrow.is_pcell = false;
  CaContext wide;
  wide.active_ccs = 3;
  wide.aggregate_bw_mhz = 240;
  wide.is_pcell = false;
  const auto in_narrow = average_alloc(sched, carrier_of(BandId::kN41, 40, 30),
                                       link(25.0), narrow, 0.7);
  const auto in_wide = average_alloc(sched, carrier_of(BandId::kN41, 40, 30),
                                     link(25.0), wide, 0.7);
  EXPECT_LT(in_wide.rb, in_narrow.rb);
  EXPECT_LT(in_wide.tput_bps, 0.8 * in_narrow.tput_bps);
}

TEST(Scheduler, PcellNeverThrottled) {
  Scheduler sched;
  CaContext wide;
  wide.active_ccs = 3;
  wide.aggregate_bw_mhz = 240;
  wide.is_pcell = true;
  CaContext alone;
  const auto pcell_wide = average_alloc(sched, carrier_of(BandId::kN41, 100, 30),
                                        link(25.0), wide, 0.7);
  const auto standalone = average_alloc(sched, carrier_of(BandId::kN41, 100, 30),
                                        link(25.0), alone, 0.7);
  EXPECT_NEAR(pcell_wide.rb, standalone.rb, standalone.rb * 0.15);
}

TEST(Scheduler, MmwaveCappedAtTwoLayers) {
  Scheduler sched;
  const auto a = average_alloc(sched, carrier_of(BandId::kN260, 100, 120), link(30.0),
                               CaContext{}, 0.1);
  EXPECT_LE(a.layers, 2);
}

TEST(Scheduler, LowBandCappedAtTwoLayers) {
  Scheduler sched;
  const auto a = average_alloc(sched, carrier_of(BandId::kN71, 20, 15), link(30.0),
                               CaContext{}, 0.1);
  EXPECT_LE(a.layers, 2);
}

TEST(Scheduler, UtilizationNoiseMakesThroughputBursty) {
  Scheduler sched;
  Rng rng(7);
  const auto capability = ue_capability(ModemModel::kX70);
  std::vector<double> tputs;
  for (int i = 0; i < 2000; ++i)
    tputs.push_back(sched.allocate(carrier_of(BandId::kN41, 100, 30), link(30.0),
                                   CaContext{}, capability, 0.2, rng)
                        .tput_bps);
  const double cv = ca5g::common::stddev(tputs) / ca5g::common::mean(tputs);
  EXPECT_GT(cv, 0.15);  // bursty, like real 10 ms traces
  EXPECT_LT(cv, 0.8);
}

TEST(Scheduler, InvalidContextThrows) {
  Scheduler sched;
  Rng rng(1);
  CaContext bad;
  bad.active_ccs = 0;
  EXPECT_THROW((void)sched.allocate(carrier_of(BandId::kN41, 100, 30), link(20.0), bad,
                                    ue_capability(ModemModel::kX70), 0.2, rng),
               ca5g::common::CheckError);
}

}  // namespace
