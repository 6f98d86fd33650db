// Unit tests for operator deployment generation (paper Table 2/6/7).
#include <gtest/gtest.h>

#include <set>

#include "common/contracts.hpp"
#include "ran/deployment.hpp"

namespace {

using namespace ca5g::ran;
using ca5g::phy::BandId;
using ca5g::phy::Rat;

DeploymentParams params(std::uint64_t seed = 5) {
  DeploymentParams p;
  p.seed = seed;
  return p;
}

TEST(Deployment, OperatorNames) {
  EXPECT_EQ(operator_name(OperatorId::kOpX), "OpX");
  EXPECT_EQ(operator_name(OperatorId::kOpZ), "OpZ");
}

TEST(Deployment, GeneratesSitesAndCarriers) {
  const auto dep = make_deployment(OperatorId::kOpZ,
                                   ca5g::radio::Environment::kUrbanMacro, params());
  EXPECT_GT(dep.sites.size(), 20u);
  EXPECT_GT(dep.carriers.size(), dep.sites.size());
  for (const auto& c : dep.carriers) {
    EXPECT_LT(c.site, dep.sites.size());
    EXPECT_GT(c.tx_power_dbm, 0.0);
    EXPECT_GT(c.bandwidth_mhz, 0);
  }
  // Site back-references are consistent.
  for (std::size_t s = 0; s < dep.sites.size(); ++s)
    for (auto id : dep.sites[s].carriers) EXPECT_EQ(dep.carrier(id).site, s);
}

TEST(Deployment, OperatorBandPortfoliosMatchTable6) {
  const auto opz = make_deployment(OperatorId::kOpZ,
                                   ca5g::radio::Environment::kUrbanMacro, params());
  std::set<BandId> opz_nr;
  for (const auto& c : opz.carriers)
    if (ca5g::phy::band_info(c.band).rat == Rat::kNr) opz_nr.insert(c.band);
  // OpZ re-farms n71/n25/n41, never C-band or mmWave.
  EXPECT_TRUE(opz_nr.count(BandId::kN41));
  EXPECT_TRUE(opz_nr.count(BandId::kN71));
  EXPECT_FALSE(opz_nr.count(BandId::kN77));
  EXPECT_FALSE(opz_nr.count(BandId::kN260));

  const auto opy = make_deployment(OperatorId::kOpY,
                                   ca5g::radio::Environment::kUrbanMacro, params());
  std::set<BandId> opy_nr;
  for (const auto& c : opy.carriers)
    if (ca5g::phy::band_info(c.band).rat == Rat::kNr) opy_nr.insert(c.band);
  EXPECT_TRUE(opy_nr.count(BandId::kN77));
  EXPECT_FALSE(opy_nr.count(BandId::kN41));
}

TEST(Deployment, OpZHas4ccSites) {
  const auto dep = make_deployment(OperatorId::kOpZ,
                                   ca5g::radio::Environment::kUrbanMacro, params());
  std::size_t sites_with_4_nr = 0;
  for (const auto& site : dep.sites) {
    std::size_t nr = 0;
    for (auto id : site.carriers)
      if (ca5g::phy::band_info(dep.carrier(id).band).rat == Rat::kNr) ++nr;
    if (nr >= 4) ++sites_with_4_nr;
  }
  EXPECT_GT(sites_with_4_nr, dep.sites.size() / 4);
}

TEST(Deployment, SameBandChannelsGetDistinctIndexes) {
  const auto dep = make_deployment(OperatorId::kOpZ,
                                   ca5g::radio::Environment::kUrbanMacro, params());
  for (const auto& site : dep.sites) {
    std::set<std::pair<BandId, int>> seen;
    for (auto id : site.carriers) {
      const auto& c = dep.carrier(id);
      EXPECT_TRUE(seen.insert({c.band, c.channel_index}).second)
          << "duplicate channel index within a site";
    }
  }
}

TEST(Deployment, DeterministicForSeed) {
  const auto a = make_deployment(OperatorId::kOpY,
                                 ca5g::radio::Environment::kUrbanMacro, params(11));
  const auto b = make_deployment(OperatorId::kOpY,
                                 ca5g::radio::Environment::kUrbanMacro, params(11));
  ASSERT_EQ(a.carriers.size(), b.carriers.size());
  for (std::size_t i = 0; i < a.carriers.size(); ++i) {
    EXPECT_EQ(a.carriers[i].band, b.carriers[i].band);
    EXPECT_EQ(a.carriers[i].pci, b.carriers[i].pci);
  }
}

TEST(Deployment, HighwayIsLinear) {
  const auto dep = make_deployment(OperatorId::kOpZ,
                                   ca5g::radio::Environment::kHighway, params());
  for (const auto& site : dep.sites) EXPECT_LT(std::abs(site.pos.y), 600.0);
}

TEST(Deployment, CarriersOfRatFilters) {
  const auto dep = make_deployment(OperatorId::kOpX,
                                   ca5g::radio::Environment::kUrbanMacro, params());
  const auto nr = dep.carriers_of_rat(Rat::kNr);
  const auto lte = dep.carriers_of_rat(Rat::kLte);
  EXPECT_EQ(nr.size() + lte.size(), dep.carriers.size());
  for (auto id : nr) EXPECT_EQ(ca5g::phy::band_info(dep.carrier(id).band).rat, Rat::kNr);
}

TEST(LoadProfile, RushHourPeaks) {
  LoadProfile load;
  EXPECT_GT(load.load_at_hour(17.0), load.load_at_hour(10.0));
  EXPECT_LT(load.load_at_hour(2.0), load.load_at_hour(10.0));  // midnight light
  EXPECT_NEAR(load.load_at_hour(17.0), load.rush_hour_load, 1e-9);
}

TEST(LoadProfile, RampsAreContinuousAtBoundaries) {
  LoadProfile load;
  const double before = load.load_at_hour(load.rush_hour_start_h - 0.01);
  const double at = load.load_at_hour(load.rush_hour_start_h);
  EXPECT_NEAR(before, at, 0.02);
}

TEST(Deployment, InvalidParamsThrow) {
  DeploymentParams p;
  p.extent_m = -5.0;
  EXPECT_THROW(
      make_deployment(OperatorId::kOpZ, ca5g::radio::Environment::kUrbanMacro, p),
      ca5g::common::CheckError);
}

}  // namespace
