// Unit tests for regression trees, GBDT, and random forest.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "predictors/trees.hpp"
#include "test_helpers.hpp"

namespace {

using namespace ca5g;
using namespace ca5g::predictors;

/// Step-function data: y = 1 when x0 > 0.5, else 0 — trivially splittable.
void make_step_data(std::vector<std::vector<double>>& x, std::vector<double>& y,
                    std::size_t n, common::Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform();
    const double b = rng.uniform();
    x.push_back({a, b});
    y.push_back(a > 0.5 ? 1.0 : 0.0);
  }
}

TEST(RegressionTree, LearnsStepFunction) {
  common::Rng rng(1);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  make_step_data(x, y, 400, rng);
  RegressionTree tree;
  RegressionTree::Config config;
  config.max_depth = 3;
  config.feature_subsample = 2;  // consider both features
  tree.fit(x, y, config, rng);
  EXPECT_GT(tree.node_count(), 1u);
  EXPECT_NEAR(tree.predict({0.9, 0.5}), 1.0, 0.1);
  EXPECT_NEAR(tree.predict({0.1, 0.5}), 0.0, 0.1);
}

TEST(RegressionTree, DepthZeroIsMean) {
  common::Rng rng(2);
  std::vector<std::vector<double>> x{{0.0}, {1.0}};
  std::vector<double> y{2.0, 4.0};
  RegressionTree tree;
  RegressionTree::Config config;
  config.max_depth = 0;
  tree.fit(x, y, config, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict({0.5}), 3.0);
}

TEST(RegressionTree, MinLeafSizeRespected) {
  common::Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  make_step_data(x, y, 10, rng);
  RegressionTree tree;
  RegressionTree::Config config;
  config.min_samples_leaf = 6;  // 10 samples cannot split into 6+6
  config.feature_subsample = 2;
  tree.fit(x, y, config, rng);
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(RegressionTree, RejectsEmptyOrMismatched) {
  common::Rng rng(4);
  RegressionTree tree;
  EXPECT_THROW(tree.fit({}, {}, {}, rng), common::CheckError);
  EXPECT_THROW(tree.fit({{1.0}}, {1.0, 2.0}, {}, rng), common::CheckError);
  EXPECT_THROW((void)tree.predict({1.0}), common::CheckError);  // unfitted
}

TEST(Gbdt, BeatsConstantBaseline) {
  const auto ds = ca5g::test::synthetic_dataset(2, 300);
  common::Rng rng(5);
  const auto split = ds.random_split(0.6, 0.1, rng);
  GbdtPredictor gbdt;
  gbdt.fit(ds, split.train, split.val);
  const double gbdt_rmse = evaluate_rmse(gbdt, split.test);

  // Constant-mean baseline RMSE for comparison.
  double mean = 0.0;
  std::size_t n = 0;
  for (const auto* w : split.train)
    for (double t : w->target) {
      mean += t;
      ++n;
    }
  mean /= static_cast<double>(n);
  double sq = 0.0;
  std::size_t m = 0;
  for (const auto* w : split.test)
    for (double t : w->target) {
      sq += (t - mean) * (t - mean);
      ++m;
    }
  const double baseline_rmse = std::sqrt(sq / static_cast<double>(m));
  EXPECT_LT(gbdt_rmse, 0.8 * baseline_rmse);
}

TEST(Gbdt, PredictionHorizonMatchesDataset) {
  const auto ds = ca5g::test::synthetic_dataset(1, 150);
  common::Rng rng(6);
  const auto split = ds.random_split(0.6, 0.1, rng);
  GbdtPredictor gbdt;
  gbdt.fit(ds, split.train, split.val);
  EXPECT_EQ(gbdt.predict(*split.test.front()).size(), ds.horizon());
  EXPECT_EQ(gbdt.name(), "GBDT");
}

TEST(RandomForest, LearnsAndIsBounded) {
  const auto ds = ca5g::test::synthetic_dataset(1, 250);
  common::Rng rng(7);
  const auto split = ds.random_split(0.6, 0.1, rng);
  RandomForestPredictor rf;
  rf.fit(ds, split.train, split.val);
  const double rmse = evaluate_rmse(rf, split.test);
  EXPECT_LT(rmse, 0.25);
  for (const auto* w : split.test) {
    for (double p : rf.predict(*w)) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.5);
    }
  }
}

TEST(Trees, PredictBeforeFitThrows) {
  const auto ds = ca5g::test::synthetic_dataset(1, 100);
  GbdtPredictor gbdt;
  EXPECT_THROW((void)gbdt.predict(ds.windows().front()), common::CheckError);
  RandomForestPredictor rf;
  EXPECT_THROW((void)rf.predict(ds.windows().front()), common::CheckError);
}

TEST(Trees, FlattenWindowDimensions) {
  const auto ds = ca5g::test::synthetic_dataset(1, 100);
  const auto flat = flatten_window(ds.windows().front());
  EXPECT_EQ(flat.size(), ds.history() * traces::flat_dim(ds.cc_slots()));
}

}  // namespace
