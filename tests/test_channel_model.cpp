// Unit tests for the stochastic link channel and link-budget evaluation.
#include <gtest/gtest.h>

#include <cmath>
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
    link.advance(1.0, 0.01);
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
    std::vector<double> a, b;
    double prev = link.shadow_db();
    for (int i = 0; i < 8000; ++i) {
      link.advance(step_m, 0.01);
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
  LinkChannel link(Rng(3), {});
  std::vector<double> fading;
  for (int i = 0; i < 5000; ++i) {
    link.advance(0.0, 0.01);
    fading.push_back(link.fading_db());
  }
  EXPECT_GT(ca5g::common::stddev(fading), 0.5);
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

}  // namespace
