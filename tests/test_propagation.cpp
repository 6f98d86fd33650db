// Unit + property tests for propagation models.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/contracts.hpp"
#include "radio/propagation.hpp"

namespace {

using namespace ca5g::radio;

TEST(Propagation, Distance) {
  EXPECT_DOUBLE_EQ(distance_m({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_m({1, 1}, {1, 1}), 0.0);
}

TEST(Propagation, PathLossIncreasesWithDistance) {
  const double near = path_loss_db(1900, 50, Environment::kUrbanMacro);
  const double far = path_loss_db(1900, 500, Environment::kUrbanMacro);
  EXPECT_GT(far, near);
}

TEST(Propagation, PathLossIncreasesWithFrequency) {
  const double low = path_loss_db(600, 300, Environment::kUrbanMacro);
  const double mid = path_loss_db(2500, 300, Environment::kUrbanMacro);
  EXPECT_GT(mid, low);
  // The low-band advantage is what lets n71 anchor coverage (Fig. 28).
  EXPECT_NEAR(mid - low, 20.0 * std::log10(2500.0 / 600.0), 1e-6);
}

TEST(Propagation, NearFieldClamped) {
  EXPECT_DOUBLE_EQ(path_loss_db(1900, 1.0, Environment::kUrbanMacro),
                   path_loss_db(1900, 10.0, Environment::kUrbanMacro));
}

TEST(Propagation, EnvironmentOrdering) {
  // Urban NLOS is lossier than suburban, which is lossier than highway.
  const double d = 800.0;
  const double urban = path_loss_db(1900, d, Environment::kUrbanMacro);
  const double suburban = path_loss_db(1900, d, Environment::kSuburbanMacro);
  const double highway = path_loss_db(1900, d, Environment::kHighway);
  EXPECT_GT(urban, suburban);
  EXPECT_GT(suburban, highway);
}

TEST(Propagation, MmwaveUsesFr2Curve) {
  const double fr2 = path_loss_db(39000, 200, Environment::kUrbanMacro);
  const double fr1 = path_loss_db(3700, 200, Environment::kUrbanMacro);
  EXPECT_GT(fr2, fr1 + 10.0);
}

TEST(Propagation, O2iPenetration) {
  // Low band penetrates much better than mid band; mmWave is blocked.
  EXPECT_LT(o2i_penetration_db(600), o2i_penetration_db(3700));
  EXPECT_GE(o2i_penetration_db(39000), 50.0);
  EXPECT_GT(o2i_penetration_db(3700) - o2i_penetration_db(600), 8.0);
}

TEST(Propagation, NoisePower) {
  // kTB: -174 dBm/Hz + 10log10(BW) + NF.
  EXPECT_NEAR(noise_power_dbm(1.0, 0.0), -174.0, 1e-9);
  EXPECT_NEAR(noise_power_dbm(20e6, 7.0), -174.0 + 73.0 + 7.0, 0.1);
  EXPECT_THROW((void)noise_power_dbm(0.0), ca5g::common::CheckError);
  EXPECT_THROW((void)path_loss_db(-1.0, 100, Environment::kUrbanMacro),
               ca5g::common::CheckError);
}

// The engine evaluates path loss as a per-site distance term plus a
// per-carrier frequency term; their sum must be path_loss_db bit for bit.
TEST(Propagation, SplitTermsSumToPathLossBitExact) {
  for (int e = 0; e < 4; ++e) {
    const auto env = static_cast<Environment>(e);
    for (double freq : {600.0, 1900.0, 2506.0, 3700.0, 23999.0, 24000.0, 28500.0, 39000.0}) {
      for (double d : {0.0, 1.0, 9.99, 10.0, 57.3, 250.0, 1234.5, 30000.0}) {
        const double split = path_loss_distance_db(log10_distance(d), is_fr2(freq), env) +
                             path_loss_frequency_db(freq);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(split),
                  std::bit_cast<std::uint64_t>(path_loss_db(freq, d, env)))
            << "env " << e << " freq " << freq << " d " << d;
      }
    }
  }
  EXPECT_FALSE(is_fr2(23999.0));
  EXPECT_TRUE(is_fr2(24000.0));
  EXPECT_EQ(log10_distance(3.0), 1.0);
  EXPECT_THROW((void)path_loss_frequency_db(0.0), ca5g::common::CheckError);
}

// Property: path loss is monotone in distance for every environment.
class PathLossMonotone
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PathLossMonotone, MonotoneInDistance) {
  const auto env = static_cast<Environment>(std::get<0>(GetParam()));
  const double freq = std::get<1>(GetParam());
  double prev = -1e9;
  for (double d = 10; d <= 3000; d *= 1.5) {
    const double pl = path_loss_db(freq, d, env);
    EXPECT_GT(pl, prev);
    prev = pl;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnvFreq, PathLossMonotone,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(600.0, 1900.0, 3700.0, 39000.0)));

}  // namespace
