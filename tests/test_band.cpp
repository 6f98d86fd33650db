// Unit + property tests for the 3GPP band catalogue.
#include <gtest/gtest.h>

#include "phy/band.hpp"

namespace {

using namespace ca5g::phy;

TEST(Band, CatalogueSize) { EXPECT_EQ(all_bands().size(), kBandCount); }

TEST(Band, KnownProperties) {
  const auto& n41 = band_info(BandId::kN41);
  EXPECT_EQ(n41.rat, Rat::kNr);
  EXPECT_EQ(n41.duplex, Duplex::kTdd);
  EXPECT_EQ(n41.range, BandRange::kMid);
  EXPECT_DOUBLE_EQ(n41.center_freq_mhz, 2500.0);

  const auto& n71 = band_info(BandId::kN71);
  EXPECT_EQ(n71.duplex, Duplex::kFdd);
  EXPECT_EQ(n71.range, BandRange::kLow);

  const auto& n260 = band_info(BandId::kN260);
  EXPECT_TRUE(is_mmwave(BandId::kN260));
  EXPECT_DOUBLE_EQ(n260.center_freq_mhz, 39000.0);
}

TEST(Band, NrAndLtePartition) {
  int nr = 0, lte = 0;
  for (const auto& b : all_bands()) (b.rat == Rat::kNr ? nr : lte)++;
  EXPECT_EQ(nr, 8);    // n5 n25 n41 n66 n71 n77 n260 n261
  EXPECT_EQ(lte, 14);  // paper Table 6's 4G rows
}

TEST(Band, DownlinkDuty) {
  EXPECT_DOUBLE_EQ(downlink_duty(Duplex::kFdd), 1.0);
  EXPECT_GT(downlink_duty(Duplex::kTdd), 0.5);
  EXPECT_LT(downlink_duty(Duplex::kTdd), 1.0);
}

// Property sweep over the whole catalogue.
class BandProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BandProperty, EntriesAreWellFormed) {
  const auto& band = all_bands()[GetParam()];
  EXPECT_EQ(static_cast<std::size_t>(band.id), GetParam());
  EXPECT_FALSE(band.name.empty());
  EXPECT_GT(band.center_freq_mhz, 0.0);
  EXPECT_FALSE(band.bandwidths_mhz.empty());
  EXPECT_FALSE(band.scs_khz.empty());
  // Name prefix matches the RAT convention ("b" = 4G, "n" = 5G).
  EXPECT_EQ(band.name.front(), band.rat == Rat::kNr ? 'n' : 'b');
  // Range classes match frequency.
  if (band.center_freq_mhz < 1000.0) {
    EXPECT_EQ(band.range, BandRange::kLow);
  }
  if (band.center_freq_mhz >= 24000.0) {
    EXPECT_EQ(band.range, BandRange::kHigh);
  }
  // LTE bands are fixed at 15 kHz SCS and ≤ 20 MHz channels.
  if (band.rat == Rat::kLte) {
    ASSERT_EQ(band.scs_khz.size(), 1u);
    EXPECT_EQ(band.scs_khz.front(), 15);
    for (int bw : band.bandwidths_mhz) EXPECT_LE(bw, 20);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBands, BandProperty,
                         ::testing::Range<std::size_t>(0, kBandCount));

}  // namespace
