// Unit tests for the statistical baselines (harmonic mean, Prophet-lite)
// and the ridge solver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "predictors/naive.hpp"
#include "test_helpers.hpp"

namespace {

using namespace ca5g;
using namespace ca5g::predictors;

TEST(RidgeSolve, ExactOnWellPosedSystem) {
  // y = 2 + 3x, no regularization → exact recovery.
  std::vector<std::vector<double>> a;
  std::vector<double> y;
  for (double x = 0.0; x < 10.0; x += 1.0) {
    a.push_back({1.0, x});
    y.push_back(2.0 + 3.0 * x);
  }
  const auto coef = ridge_solve(a, y, 0.0);
  ASSERT_EQ(coef.size(), 2u);
  EXPECT_NEAR(coef[0], 2.0, 1e-9);
  EXPECT_NEAR(coef[1], 3.0, 1e-9);
}

TEST(RidgeSolve, RegularizationShrinksCoefficients) {
  std::vector<std::vector<double>> a;
  std::vector<double> y;
  for (double x = 0.0; x < 10.0; x += 1.0) {
    a.push_back({x});
    y.push_back(5.0 * x);
  }
  const auto strong = ridge_solve(a, y, 1000.0);
  const auto weak = ridge_solve(a, y, 0.0);
  EXPECT_LT(std::abs(strong[0]), std::abs(weak[0]));
}

TEST(RidgeSolve, RejectsBadInput) {
  EXPECT_THROW(ridge_solve({}, {}, 0.1), common::CheckError);
  EXPECT_THROW(ridge_solve({{1.0}}, {1.0, 2.0}, 0.1), common::CheckError);
}

TEST(HarmonicMean, ConstantHistoryPredictsConstant) {
  const auto ds = ca5g::test::synthetic_dataset(1, 100);
  HarmonicMeanPredictor hm;
  hm.fit(ds, {}, {});
  traces::Window w = ds.windows().front();
  const float level = 0.4f;
  for (std::size_t t = 0; t < w.history(); ++t) w.agg(t) = level;
  const auto pred = hm.predict(w);
  ASSERT_EQ(pred.size(), ds.horizon());
  for (double p : pred) EXPECT_NEAR(p, level, 1e-9);
}

TEST(HarmonicMean, DominatedBySmallValues) {
  const auto ds = ca5g::test::synthetic_dataset(1, 100);
  HarmonicMeanPredictor hm;
  hm.fit(ds, {}, {});
  traces::Window w = ds.windows().front();
  for (std::size_t t = 0; t < w.history(); ++t) w.agg(t) = 1.0f;
  w.agg(w.history() - 1) = 0.01f;
  const auto pred = hm.predict(w);
  // Harmonic mean of {1×9, 0.01} ≈ 0.092 — far below the arithmetic mean.
  EXPECT_LT(pred.front(), 0.2);
}

TEST(ProphetLite, ExtendsLinearTrend) {
  const auto ds = ca5g::test::synthetic_dataset(1, 100);
  ProphetLitePredictor prophet({0, 1e-6});  // pure trend, no seasonality
  prophet.fit(ds, {}, {});
  traces::Window w = ds.windows().front();
  for (std::size_t t = 0; t < w.history(); ++t)
    w.agg(t) = 0.1f + 0.02f * static_cast<float>(t);
  const auto pred = prophet.predict(w);
  // Continuation of the line: next value ≈ 0.1 + 0.02·10 = 0.30.
  EXPECT_NEAR(pred.front(), 0.30, 0.02);
  EXPECT_GT(pred.back(), pred.front());
}

TEST(ProphetLite, OvershootsAtDrop) {
  // The paper's Z1 failure mode: history trends up, future drops —
  // Prophet extrapolates the trend and overestimates.
  const auto ds = ca5g::test::synthetic_dataset(1, 100);
  ProphetLitePredictor prophet;
  prophet.fit(ds, {}, {});
  traces::Window w = ds.windows().front();
  for (std::size_t t = 0; t < w.history(); ++t)
    w.agg(t) = 0.3f + 0.05f * static_cast<float>(t);
  const auto pred = prophet.predict(w);
  EXPECT_GT(pred.back(), 0.6);  // keeps climbing ignorant of any drop
}

TEST(ProphetLite, PredictionsClampedToValidRange) {
  const auto ds = ca5g::test::synthetic_dataset(1, 100);
  ProphetLitePredictor prophet;
  prophet.fit(ds, {}, {});
  traces::Window w = ds.windows().front();
  for (std::size_t t = 0; t < w.history(); ++t)
    w.agg(t) = 0.9f - 0.15f * static_cast<float>(t);  // steep dive
  for (double p : prophet.predict(w)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.5);
  }
}

TEST(Evaluate, RmseOverTestSet) {
  const auto ds = ca5g::test::synthetic_dataset(1, 200);
  common::Rng rng(1);
  const auto split = ds.random_split(0.5, 0.2, rng);
  HarmonicMeanPredictor hm;
  hm.fit(ds, split.train, split.val);
  const double rmse = evaluate_rmse(hm, split.test);
  EXPECT_GT(rmse, 0.0);
  EXPECT_LT(rmse, 1.0);
}

TEST(TrainConfig, EnvOverrides) {
  setenv("CA5G_EPOCHS", "7", 1);
  const auto config = train_config_from_env();
  EXPECT_EQ(config.epochs, 7u);
  unsetenv("CA5G_EPOCHS");
}

}  // namespace
