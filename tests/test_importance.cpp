// Tests for permutation feature importance (explainability).
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "core/prism5g.hpp"
#include "eval/importance.hpp"
#include "predictors/naive.hpp"
#include "test_helpers.hpp"

namespace {

using namespace ca5g;

TEST(Importance, FeatureNamesMatchSchema) {
  EXPECT_EQ(eval::cc_feature_names().size(), traces::kCcFeatureDim);
  EXPECT_EQ(eval::cc_feature_names()[traces::kFeatRsrp], "ssRSRP");
  EXPECT_EQ(eval::cc_feature_names()[traces::kFeatTput], "HisTput(cc)");
}

TEST(Importance, HistoryOnlyModelIgnoresCcFeatures) {
  // The harmonic-mean predictor uses only agg_history: shuffling per-CC
  // features must not change its RMSE at all, while shuffling the
  // aggregate history must hurt it.
  const auto ds = ca5g::test::synthetic_dataset(1, 250);
  common::Rng rng(1);
  const auto split = ds.random_split(0.6, 0.1, rng);
  predictors::HarmonicMeanPredictor hm;
  hm.fit(ds, split.train, split.val);

  common::Rng perm_rng(2);
  const auto cc_importance =
      eval::permutation_importance(hm, split.test, perm_rng);
  ASSERT_EQ(cc_importance.size(), traces::kCcFeatureDim);
  for (const auto& fi : cc_importance)
    EXPECT_NEAR(fi.increase_pct(), 0.0, 1e-9) << fi.feature;

  const auto hist = eval::history_importance(hm, split.test, perm_rng);
  EXPECT_GT(hist.increase_pct(), 1.0);
}

TEST(Importance, CaAwareModelUsesCcFeatures) {
  // Prism5G consumes per-CC features: destroying them must increase its
  // error noticeably for at least some features (e.g. per-CC tput).
  const auto ds = ca5g::test::synthetic_dataset(2, 250);
  common::Rng rng(3);
  const auto split = ds.random_split(0.6, 0.15, rng);
  predictors::TrainConfig config;
  config.epochs = 10;
  config.hidden = 16;
  config.layers = 1;
  core::Prism5G prism(config);
  prism.fit(ds, split.train, split.val);

  common::Rng perm_rng(4);
  const auto importance =
      eval::permutation_importance(prism, split.test, perm_rng);
  double max_increase = 0.0;
  for (const auto& fi : importance)
    max_increase = std::max(max_increase, fi.increase_pct());
  EXPECT_GT(max_increase, 1.0);
  // Baseline RMSE is consistent across entries.
  for (const auto& fi : importance)
    EXPECT_DOUBLE_EQ(fi.baseline_rmse, importance.front().baseline_rmse);
}

TEST(Importance, RejectsEmptyTestSet) {
  const auto ds = ca5g::test::synthetic_dataset(1, 100);
  predictors::HarmonicMeanPredictor hm;
  hm.fit(ds, {}, {});
  common::Rng rng(5);
  EXPECT_THROW((void)eval::permutation_importance(hm, {}, rng),
               common::CheckError);
}

}  // namespace
