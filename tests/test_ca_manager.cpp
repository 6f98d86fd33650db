// Unit tests for the CA manager (RRC state machine): PCell selection,
// SCell add/remove with TTT, handover hysteresis, capability caps, and
// the low-band-PCell preference.
#include <gtest/gtest.h>

#include <optional>

#include "common/contracts.hpp"
#include "ran/ca_manager.hpp"

namespace {

using namespace ca5g::ran;
using ca5g::phy::BandId;
using ca5g::ue::ModemModel;
using ca5g::ue::ue_capability;

/// Hand-built deployment: one site with 4 NR carriers (n41×2, n25, n71)
/// plus a second site with a single n41.
Deployment tiny_deployment() {
  Deployment dep;
  dep.op = OperatorId::kOpZ;
  dep.sites.push_back({{0, 0}, {}});
  dep.sites.push_back({{1000, 0}, {}});
  auto add = [&](std::size_t site, BandId band, int bw, int scs, int chan) {
    Carrier c;
    c.id = static_cast<CarrierId>(dep.carriers.size());
    c.band = band;
    c.bandwidth_mhz = bw;
    c.scs_khz = scs;
    c.pci = 100 + static_cast<int>(c.id);
    c.channel_index = chan;
    c.site = site;
    dep.sites[site].carriers.push_back(c.id);
    dep.carriers.push_back(c);
    return c.id;
  };
  add(0, BandId::kN41, 100, 30, 0);  // id 0
  add(0, BandId::kN41, 40, 30, 1);   // id 1
  add(0, BandId::kN25, 20, 15, 0);   // id 2
  add(0, BandId::kN71, 20, 15, 0);   // id 3
  add(1, BandId::kN41, 100, 30, 2);  // id 4
  return dep;
}

CaPolicy fast_policy() {
  CaPolicy policy;
  policy.time_to_trigger_s = 0.2;
  return policy;
}

std::vector<double> rsrp(std::initializer_list<double> values) {
  return std::vector<double>(values);
}

/// The PCell is the first active serving cell; none out of coverage.
std::optional<CarrierId> pcell(const CaManager& ca) {
  const auto& active = ca.active_set();
  if (active.empty()) return std::nullopt;
  return active.front();
}

TEST(CaManager, InitialAttachPicksStrongest) {
  const auto dep = tiny_deployment();
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), fast_policy());
  const auto events = ca.update(rsrp({-80, -85, -90, -95, -120}), 0.0);
  ASSERT_EQ(pcell(ca), CarrierId{0});
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, RrcEventType::kPCellChange);
}

TEST(CaManager, ScellAddRequiresTimeToTrigger) {
  const auto dep = tiny_deployment();
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), fast_policy());
  auto meas = rsrp({-80, -85, -90, -95, -130});
  (void)ca.update(meas, 0.0);
  EXPECT_EQ(ca.active_set().size(), 1u);  // pending, not yet added
  (void)ca.update(meas, 0.1);
  EXPECT_EQ(ca.active_set().size(), 1u);
  const auto events = ca.update(meas, 0.3);  // TTT (0.2 s) elapsed
  EXPECT_EQ(ca.active_set().size(), 4u);
  std::size_t adds = 0;
  for (const auto& e : events)
    if (e.type == RrcEventType::kSCellAdd) ++adds;
  EXPECT_EQ(adds, 3u);
}

TEST(CaManager, CapabilityCapsCcCount) {
  const auto dep = tiny_deployment();
  // X60 supports only 2 NR FR1 CCs.
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX60), fast_policy());
  auto meas = rsrp({-80, -85, -90, -95, -130});
  for (double t = 0.0; t < 2.0; t += 0.1) (void)ca.update(meas, t);
  EXPECT_EQ(ca.active_set().size(), 2u);
}

TEST(CaManager, NoSaCaMeansSingleCc) {
  const auto dep = tiny_deployment();
  // X50 (Galaxy S10) has no SA-CA support (paper Fig. 29).
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX50), fast_policy());
  auto meas = rsrp({-80, -85, -90, -95, -130});
  for (double t = 0.0; t < 2.0; t += 0.1) (void)ca.update(meas, t);
  EXPECT_EQ(ca.active_set().size(), 1u);
}

TEST(CaManager, ScellRemovedAfterFade) {
  const auto dep = tiny_deployment();
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), fast_policy());
  auto strong = rsrp({-80, -85, -90, -95, -130});
  for (double t = 0.0; t < 1.0; t += 0.1) (void)ca.update(strong, t);
  ASSERT_EQ(ca.active_set().size(), 4u);
  // The 40 MHz n41 SCell (id 1) fades below the removal threshold.
  auto faded = rsrp({-80, -110, -90, -95, -130});
  (void)ca.update(faded, 1.0);
  EXPECT_EQ(ca.active_set().size(), 4u);  // TTT pending
  const auto events = ca.update(faded, 1.3);
  EXPECT_EQ(ca.active_set().size(), 3u);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, RrcEventType::kSCellRemove);
  EXPECT_EQ(events.front().carrier, CarrierId{1});
}

TEST(CaManager, HandoverNeedsHysteresisAndTtt) {
  const auto dep = tiny_deployment();
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), fast_policy());
  (void)ca.update(rsrp({-80, -130, -130, -130, -90}), 0.0);
  ASSERT_EQ(pcell(ca), CarrierId{0});
  // Candidate only 1 dB better: below hysteresis → no handover ever.
  auto slightly_better = rsrp({-80, -130, -130, -130, -79});
  for (double t = 0.1; t < 2.0; t += 0.1) (void)ca.update(slightly_better, t);
  EXPECT_EQ(pcell(ca), CarrierId{0});
  // 6 dB better: handover after TTT.
  auto much_better = rsrp({-80, -130, -130, -130, -74});
  (void)ca.update(much_better, 2.0);
  EXPECT_EQ(pcell(ca), CarrierId{0});
  (void)ca.update(much_better, 2.3);
  EXPECT_EQ(pcell(ca), CarrierId{4});
}

TEST(CaManager, HandoverDropsScells) {
  const auto dep = tiny_deployment();
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), fast_policy());
  auto strong = rsrp({-80, -85, -90, -95, -130});
  for (double t = 0.0; t < 1.0; t += 0.1) (void)ca.update(strong, t);
  ASSERT_EQ(ca.active_set().size(), 4u);
  auto neighbor_strong = rsrp({-100, -105, -110, -112, -70});
  std::vector<RrcEvent> all_events;
  for (double t = 1.0; t < 2.0; t += 0.1) {
    auto e = ca.update(neighbor_strong, t);
    all_events.insert(all_events.end(), e.begin(), e.end());
  }
  EXPECT_EQ(pcell(ca), CarrierId{4});
  std::size_t removals = 0;
  for (const auto& e : all_events)
    if (e.type == RrcEventType::kSCellRemove) ++removals;
  EXPECT_EQ(removals, 3u);
}

TEST(CaManager, CoSitedConstraintBlocksRemoteScells) {
  const auto dep = tiny_deployment();
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), fast_policy());
  // Strong PCell at site 0; remote n41 (site 1) also strong — but not
  // co-sited, so never aggregated.
  auto meas = rsrp({-80, -120, -120, -120, -82});
  for (double t = 0.0; t < 2.0; t += 0.1) (void)ca.update(meas, t);
  EXPECT_EQ(ca.active_set().size(), 1u);
}

TEST(CaManager, LowBandPreferenceSelectsN71Pcell) {
  const auto dep = tiny_deployment();
  CaPolicy policy = fast_policy();
  policy.prefer_lowband_pcell = true;
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), policy);
  // Indoor-like condition: the mid-band carriers fall below the
  // capacity-layer floor; the weaker-but-viable n71 (id 3) anchors.
  (void)ca.update(rsrp({-103, -130, -130, -95, -130}), 0.0);
  EXPECT_EQ(pcell(ca), CarrierId{3});
}

TEST(CaManager, CapacityLayerPriorityBeatsStrongerLowBand) {
  const auto dep = tiny_deployment();
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), fast_policy());
  // n71 is 15 dB stronger, but the viable n41 capacity layer anchors.
  (void)ca.update(rsrp({-95, -130, -130, -80, -130}), 0.0);
  EXPECT_EQ(pcell(ca), CarrierId{0});
}

TEST(CaManager, WiderCarrierPreferredAsPcell) {
  const auto dep = tiny_deployment();
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), fast_policy());
  // The 40 MHz n41 (id 1) is 2 dB stronger, but the 100 MHz n41 (id 0)
  // wins PCell thanks to the bandwidth bonus.
  (void)ca.update(rsrp({-84, -82, -130, -130, -130}), 0.0);
  EXPECT_EQ(pcell(ca), CarrierId{0});
}

TEST(CaManager, OutOfCoverageClearsEverything) {
  const auto dep = tiny_deployment();
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), fast_policy());
  auto strong = rsrp({-80, -85, -90, -95, -130});
  for (double t = 0.0; t < 1.0; t += 0.1) (void)ca.update(strong, t);
  ASSERT_EQ(ca.active_set().size(), 4u);
  const auto events = ca.update(rsrp({-130, -130, -130, -130, -130}), 1.0);
  EXPECT_EQ(ca.active_set().size(), 0u);
  bool saw_rat_change = false;
  for (const auto& e : events)
    if (e.type == RrcEventType::kRatChange) saw_rat_change = true;
  EXPECT_TRUE(saw_rat_change);
}

TEST(CaManager, MeasurementSizeMismatchThrows) {
  const auto dep = tiny_deployment();
  CaManager ca(dep, ca5g::phy::Rat::kNr, ue_capability(ModemModel::kX70), fast_policy());
  EXPECT_THROW((void)ca.update(rsrp({-80.0, -90.0}), 0.0), ca5g::common::CheckError);
}

TEST(CaManager, EventNames) {
  EXPECT_EQ(rrc_event_name(RrcEventType::kSCellAdd), "scell_add");
  EXPECT_EQ(rrc_event_name(RrcEventType::kPCellChange), "pcell_change");
}

}  // namespace
