// Unit tests for the stochastic link channel and link-budget evaluation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "radio/channel_model.hpp"

namespace {

using namespace ca5g::radio;
using ca5g::common::Rng;

TEST(LinkChannel, ShadowingIsStationary) {
  LinkChannel link(Rng(1), {});
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    link.advance(LinkChannel::step({}, 1.0, 0.01));
    samples.push_back(link.shadow_db());
  }
  EXPECT_NEAR(ca5g::common::mean(samples), 0.0, 0.8);
  EXPECT_NEAR(ca5g::common::stddev(samples), 6.0, 1.2);
}

TEST(LinkChannel, ShadowingCorrelationDecaysWithDistance) {
  // Correlation between successive samples should be higher for small
  // moves than for large moves (Gudmundson model).
  auto lag1_corr = [](double step_m) {
    LinkChannel link(Rng(2), {});
    const auto step = LinkChannel::step({}, step_m, 0.01);
    std::vector<double> a, b;
    double prev = link.shadow_db();
    for (int i = 0; i < 8000; ++i) {
      link.advance(step);
      a.push_back(prev);
      b.push_back(link.shadow_db());
      prev = link.shadow_db();
    }
    return ca5g::common::pearson(a, b);
  };
  EXPECT_GT(lag1_corr(1.0), 0.9);
  EXPECT_LT(lag1_corr(200.0), 0.3);
}

TEST(LinkChannel, StationaryUeStillSeesFading) {
  // Without movement the shadowing is frozen, so every change in the
  // total is fast fading.
  LinkChannel link(Rng(3), {});
  const double shadow = link.shadow_db();
  std::vector<double> total;
  for (int i = 0; i < 5000; ++i) {
    link.advance(LinkChannel::step({}, 0.0, 0.01));
    ASSERT_EQ(link.shadow_db(), shadow);
    total.push_back(link.total_db());
  }
  EXPECT_GT(ca5g::common::stddev(total), 0.5);
}

TEST(LinkChannel, CorrelateWithPullsTowardsAnchor) {
  LinkChannel anchor(Rng(4), {});
  LinkChannel a(Rng(5), {});
  LinkChannel b(Rng(6), {});
  a.correlate_with(anchor, 1.0);
  EXPECT_DOUBLE_EQ(a.shadow_db(), anchor.shadow_db());
  const double before = b.shadow_db();
  b.correlate_with(anchor, 0.0);
  EXPECT_DOUBLE_EQ(b.shadow_db(), before);
  EXPECT_THROW(b.correlate_with(anchor, 1.5), ca5g::common::CheckError);
}

TEST(LinkBudget, RsrpFollowsLinkBudget) {
  LinkBudgetInputs in;
  in.tx_power_dbm = 28.0;
  in.freq_mhz = 2500.0;
  in.dist_m = 200.0;
  in.stochastic_loss_db = 0.0;
  const auto m = compute_link(in);
  const double expected =
      28.0 - path_loss_db(2500.0, 200.0, Environment::kUrbanMacro);
  EXPECT_NEAR(m.rsrp_dbm, expected, 1e-9);
}

TEST(LinkBudget, IndoorAddsPenetrationLoss) {
  LinkBudgetInputs outdoor;
  outdoor.dist_m = 150.0;
  LinkBudgetInputs indoor = outdoor;
  indoor.ue_indoor = true;
  const double delta =
      compute_link(outdoor).rsrp_dbm - compute_link(indoor).rsrp_dbm;
  EXPECT_NEAR(delta, o2i_penetration_db(outdoor.freq_mhz), 1e-9);
}

TEST(LinkBudget, SinrDecreasesWithLoad) {
  LinkBudgetInputs in;
  in.dist_m = 400.0;
  in.interference_load = 0.0;
  const double quiet = compute_link(in).sinr_db;
  in.interference_load = 1.0;
  const double busy = compute_link(in).sinr_db;
  EXPECT_GT(quiet, busy);
  EXPECT_GT(quiet - busy, 3.0);
}

TEST(LinkBudget, SinrAndRsrqClamped) {
  LinkBudgetInputs in;
  in.dist_m = 30000.0;  // extremely far
  const auto weak = compute_link(in);
  EXPECT_GE(weak.sinr_db, -15.0);
  EXPECT_GE(weak.rsrq_db, -19.5);
  in.dist_m = 10.0;
  in.tx_power_dbm = 60.0;
  const auto strong = compute_link(in);
  EXPECT_LE(strong.sinr_db, 35.0);
  EXPECT_LE(strong.rsrq_db, -5.0);
}

TEST(LinkBudget, RsrqTracksSinr) {
  LinkBudgetInputs in;
  in.dist_m = 200.0;
  const auto good = compute_link(in);
  in.dist_m = 1500.0;
  const auto bad = compute_link(in);
  EXPECT_GT(good.rsrq_db, bad.rsrq_db);
}

// compute_link on a pinned input table, checked bit for bit against the
// values it returned before the SINR/RSRQ mapping moved into
// link_quality(). Rows cover every environment, FR2, the near field, an
// indoor UE, loads outside [0, 1], and all three interference paths: the
// default sentinel, an explicit power below -300 dBm (falls back to the
// load model) and explicit co-channel powers.
struct PinnedLink {
  double tx_power_dbm, freq_mhz, dist_m;
  Environment env;
  bool ue_indoor;
  double stochastic_loss_db;
  int scs_khz;
  double interference_load, explicit_interference_dbm;
  std::uint64_t rsrp_bits, rsrq_bits, sinr_bits;
};

constexpr PinnedLink kPinnedLinks[] = {
    {28.0, 1900.0, 1200.0, Environment::kUrbanMacro, false, 0.0, 30, 0.3, -1000.0,
     0xc05bdcc43345640c, 0xc02bfec3c4b3c725, 0x40129b1bf0b2bab0},
    {28.0, 2500.0, 2500.0, Environment::kSuburbanMacro, false, 3.7, 30, 0.0, -1000.0,
     0xc05d98e173965220, 0xc02e22a67c3dfa7b, 0x3fea8d1fb22a6000},
    {30.0, 600.0, 1500.0, Environment::kHighway, false, -4.2, 15, 1.0, -1000.0,
     0xc054349941ae4097, 0xc01623e51cd06a70, 0x40416ff9b7b53e32},
    {27.0, 3700.0, 5.0, Environment::kIndoor, true, 45.25, 30, 0.55, -1000.0,
     0xc05a4bc7388fac3c, 0xc02959dbde7c9326, 0x4022bf13531e84c0},
    {46.0, 39000.0, 150.0, Environment::kUrbanMacro, false, 2.0, 120, 0.8, -1000.0,
     0xc055eb871af2f72e, 0xc0238e8cff59b81d, 0x4033b84d5c96a4f0},
    {46.0, 28500.0, 20.0, Environment::kIndoor, true, -10.0, 120, 0.2, -95.5,
     0xc05a750b80ad5ce4, 0xc03233cdc43ad9e4, 0xc024bb2b79a45d80},
    {28.0, 2506.0, 350.0, Environment::kUrbanMacro, false, 6.5, 30, 0.4, -350.0,
     0xc058dc4675a18e2b, 0xc025a77c2841978f, 0x402ff2fb703a5070},
    {28.0, 1900.0, 420.0, Environment::kSuburbanMacro, false, -2.5, 15, 1.7, -118.25,
     0xc054ddcb89635802, 0xc01720dc113a735c, 0x4040ff0b784f0c80},
    {15.0, 700.0, 30000.0, Environment::kHighway, false, 9.0, 15, -0.5, -1000.0,
     0xc062d62ac27f456a, 0xc033800000000000, 0xc02e000000000000},
    {60.0, 3500.0, 10.0, Environment::kUrbanMacro, false, 0.0, 30, 0.9, -70.0,
     0xc00c02c97f297530, 0xc016000000000000, 0x4041800000000000},
};

TEST(LinkBudget, PinnedTableBitExact) {
  for (std::size_t i = 0; i < std::size(kPinnedLinks); ++i) {
    const auto& row = kPinnedLinks[i];
    LinkBudgetInputs in;
    in.tx_power_dbm = row.tx_power_dbm;
    in.freq_mhz = row.freq_mhz;
    in.dist_m = row.dist_m;
    in.env = row.env;
    in.ue_indoor = row.ue_indoor;
    in.stochastic_loss_db = row.stochastic_loss_db;
    in.scs_khz = row.scs_khz;
    in.interference_load = row.interference_load;
    in.explicit_interference_dbm = row.explicit_interference_dbm;
    const auto m = compute_link(in);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.rsrp_dbm), row.rsrp_bits)
        << "row " << i << " rsrp 0x" << std::hex << std::bit_cast<std::uint64_t>(m.rsrp_dbm);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.rsrq_db), row.rsrq_bits)
        << "row " << i << " rsrq 0x" << std::hex << std::bit_cast<std::uint64_t>(m.rsrq_db);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.sinr_db), row.sinr_bits)
        << "row " << i << " sinr 0x" << std::hex << std::bit_cast<std::uint64_t>(m.sinr_db);
  }
}

}  // namespace
