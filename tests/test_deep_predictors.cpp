// Tests for the deep baselines (LSTM, TCN, Lumos5G Seq2Seq): learning on
// structured data, early stopping, and prediction mechanics.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/contracts.hpp"
#include "predictors/deep.hpp"
#include "predictors/naive.hpp"
#include "test_helpers.hpp"

namespace {

using namespace ca5g;
using namespace ca5g::predictors;

TrainConfig tiny_config() {
  TrainConfig config;
  config.epochs = 12;
  config.hidden = 16;
  config.layers = 1;
  config.batch_size = 32;
  config.patience = 12;
  return config;
}

double constant_mean_rmse(const traces::Dataset::Split& split) {
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
  return std::sqrt(sq / static_cast<double>(m));
}

class DeepModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<traces::Dataset>(ca5g::test::synthetic_dataset(2, 300));
    common::Rng rng(11);
    split_ = ds_->random_split(0.6, 0.15, rng);
  }
  std::unique_ptr<traces::Dataset> ds_;
  traces::Dataset::Split split_;
};

TEST_F(DeepModelTest, LstmLearnsStructure) {
  LstmPredictor model(tiny_config());
  model.fit(*ds_, split_.train, split_.val);
  EXPECT_LT(evaluate_rmse(model, split_.test), 0.7 * constant_mean_rmse(split_));
  EXPECT_EQ(model.name(), "LSTM");
  EXPECT_FALSE(model.val_history().empty());
}

TEST_F(DeepModelTest, TcnLearnsStructure) {
  TcnPredictor model(tiny_config());
  model.fit(*ds_, split_.train, split_.val);
  EXPECT_LT(evaluate_rmse(model, split_.test), 0.8 * constant_mean_rmse(split_));
  EXPECT_EQ(model.name(), "TCN");
}

TEST_F(DeepModelTest, Lumos5gLearnsStructure) {
  Lumos5gPredictor model(tiny_config());
  model.fit(*ds_, split_.train, split_.val);
  EXPECT_LT(evaluate_rmse(model, split_.test), 0.8 * constant_mean_rmse(split_));
  EXPECT_EQ(model.name(), "Lumos5G");
}

TEST_F(DeepModelTest, PredictionsAreHorizonLengthAndBounded) {
  LstmPredictor model(tiny_config());
  EXPECT_THROW((void)model.predict(*split_.test.front()), common::CheckError);
  model.fit(*ds_, split_.train, split_.val);
  for (std::size_t i = 0; i < std::min<std::size_t>(split_.test.size(), 20); ++i) {
    const auto pred = model.predict(*split_.test[i]);
    ASSERT_EQ(pred.size(), ds_->horizon());
    for (double p : pred) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.5);
    }
  }
}

TEST_F(DeepModelTest, ValidationLossImprovesOverTraining) {
  LstmPredictor model(tiny_config());
  model.fit(*ds_, split_.train, split_.val);
  const auto& history = model.val_history();
  ASSERT_GE(history.size(), 3u);
  double best_late = 1e9, best_early = 1e9;
  for (std::size_t i = 0; i < history.size() / 2; ++i)
    best_early = std::min(best_early, history[i]);
  for (std::size_t i = history.size() / 2; i < history.size(); ++i)
    best_late = std::min(best_late, history[i]);
  EXPECT_LE(best_late, best_early + 0.02);
}

TEST_F(DeepModelTest, EarlyStoppingHonorsPatience) {
  TrainConfig config = tiny_config();
  config.epochs = 50;
  config.patience = 2;
  LstmPredictor model(config);
  model.fit(*ds_, split_.train, split_.val);
  // With patience 2 the loop must stop well before 50 epochs on this
  // quickly-saturating task, two epochs after the best one, whose
  // weights it keeps.
  const auto& history = model.val_history();
  ASSERT_LT(history.size(), 50u);
  EXPECT_EQ(model.best_epoch() + 1 + config.patience, history.size());
  EXPECT_NEAR(history[model.best_epoch()], *std::min_element(history.begin(), history.end()),
              1e-5);
}

TEST_F(DeepModelTest, DeterministicGivenSeed) {
  LstmPredictor a(tiny_config());
  a.fit(*ds_, split_.train, split_.val);
  LstmPredictor b(tiny_config());
  b.fit(*ds_, split_.train, split_.val);
  const auto pa = a.predict(*split_.test.front());
  const auto pb = b.predict(*split_.test.front());
  for (std::size_t h = 0; h < pa.size(); ++h) EXPECT_FLOAT_EQ(pa[h], pb[h]);
}

TEST_F(DeepModelTest, FitOnEmptyTrainThrows) {
  LstmPredictor model(tiny_config());
  EXPECT_THROW(model.fit(*ds_, {}, split_.val), common::CheckError);
}

}  // namespace
