// Unit + property tests for the MCS/CQI tables and link-quality mapping.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "phy/mcs.hpp"

namespace {

using namespace ca5g::phy;

TEST(Mcs, TableEndpoints) {
  EXPECT_EQ(mcs_entry(0).modulation_order, 2);
  EXPECT_NEAR(mcs_entry(0).code_rate, 120.0 / 1024, 1e-9);
  EXPECT_EQ(mcs_entry(27).modulation_order, 8);
  EXPECT_NEAR(mcs_entry(27).code_rate, 948.0 / 1024, 1e-9);
  EXPECT_THROW((void)mcs_entry(-1), ca5g::common::CheckError);
  EXPECT_THROW((void)mcs_entry(28), ca5g::common::CheckError);
}

TEST(Cqi, TableEndpoints) {
  EXPECT_EQ(cqi_entry(0).modulation_order, 0);
  EXPECT_NEAR(cqi_entry(15).efficiency, 7.4063, 1e-4);
  EXPECT_THROW((void)cqi_entry(16), ca5g::common::CheckError);
}

TEST(Cqi, SinrMapping) {
  EXPECT_EQ(cqi_from_sinr(-10.0), 0);   // below the lowest threshold
  EXPECT_EQ(cqi_from_sinr(-6.0), 1);
  EXPECT_EQ(cqi_from_sinr(30.0), 15);   // excellent channel
  EXPECT_GT(cqi_from_sinr(10.0), cqi_from_sinr(0.0));
}

TEST(Cqi, McsFromCqiBounds) {
  EXPECT_EQ(mcs_from_cqi(0), 0);
  EXPECT_EQ(mcs_from_cqi(15), 27);
  // MCS efficiency must not exceed the CQI's promised efficiency —
  // except at the table floor (MCS 0), which is the best available
  // fallback for the lowest CQIs.
  for (int cqi = 1; cqi <= kMaxCqiIndex; ++cqi) {
    const int mcs = mcs_from_cqi(cqi);
    if (mcs > 0)
      EXPECT_LE(mcs_entry(mcs).efficiency(), cqi_entry(cqi).efficiency + 1e-9);
    else
      EXPECT_LE(cqi_entry(cqi).efficiency, mcs_entry(1).efficiency());
  }
}

TEST(Bler, NearTargetAtOperatingPoint) {
  // When SINR equals the MCS's threshold the BLER is the 10% design target.
  for (int cqi = 2; cqi <= 15; ++cqi) {
    const int mcs = mcs_from_cqi(cqi);
    const double bler = bler_estimate(cqi_entry(cqi).min_sinr_db, mcs);
    EXPECT_GT(bler, 0.01);
    EXPECT_LE(bler, 0.25);
  }
}

TEST(Bler, ImprovesWithMargin) {
  const double b0 = bler_estimate(10.0, 10);
  const double b3 = bler_estimate(13.0, 10);
  EXPECT_LT(b3, b0);
  EXPECT_NEAR(bler_estimate(40.0, 0), 0.0, 1e-4);
}

TEST(Bler, DegradesWhenMcsOutrunsChannel) {
  EXPECT_GT(bler_estimate(-5.0, 27), 0.9);
}

// Property: MCS efficiency strictly increases with the index.
class McsMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(McsMonotonicity, EfficiencyIncreases) {
  const int idx = GetParam();
  EXPECT_GT(mcs_entry(idx + 1).efficiency(), mcs_entry(idx).efficiency());
}

INSTANTIATE_TEST_SUITE_P(AllAdjacentPairs, McsMonotonicity,
                         ::testing::Range(0, kMaxMcsIndex));

// Property: CQI thresholds and efficiencies increase with the index.
class CqiMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(CqiMonotonicity, ThresholdsIncrease) {
  const int idx = GetParam();
  EXPECT_GT(cqi_entry(idx + 1).efficiency, cqi_entry(idx).efficiency);
  EXPECT_GT(cqi_entry(idx + 1).min_sinr_db, cqi_entry(idx).min_sinr_db);
}

INSTANTIATE_TEST_SUITE_P(AllAdjacentPairs, CqiMonotonicity,
                         ::testing::Range(1, kMaxCqiIndex));

// Property: cqi_from_sinr is monotone non-decreasing in SINR.
class CqiFromSinrMonotone : public ::testing::TestWithParam<int> {};

TEST_P(CqiFromSinrMonotone, Monotone) {
  const double base = -10.0 + GetParam();
  EXPECT_LE(cqi_from_sinr(base), cqi_from_sinr(base + 1.0));
}

INSTANTIATE_TEST_SUITE_P(SinrSweep, CqiFromSinrMonotone, ::testing::Range(0, 40));

}  // namespace
