// Tests for the Prism5G CA-aware predictor: architecture invariants,
// learning, per-CC decomposition, masking semantics, and ablations.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "core/prism5g.hpp"
#include "test_helpers.hpp"

namespace {

using namespace ca5g;
using predictors::TrainConfig;

TrainConfig tiny_config() {
  TrainConfig config;
  config.epochs = 12;
  config.hidden = 16;
  config.layers = 1;
  config.batch_size = 32;
  config.patience = 12;
  return config;
}

class Prism5gTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<traces::Dataset>(ca5g::test::synthetic_dataset(2, 300));
    common::Rng rng(21);
    split_ = ds_->random_split(0.6, 0.15, rng);
  }
  std::unique_ptr<traces::Dataset> ds_;
  traces::Dataset::Split split_;
};

TEST_F(Prism5gTest, NamesReflectAblations) {
  EXPECT_EQ(core::Prism5G(tiny_config()).name(), "Prism5G");
  EXPECT_EQ(core::Prism5G(tiny_config(), core::Prism5G::Variant::kNoState).name(),
            "Prism5G(no-state)");
  EXPECT_EQ(core::Prism5G(tiny_config(), core::Prism5G::Variant::kNoFusion).name(),
            "Prism5G(no-fusion)");
}

TEST_F(Prism5gTest, LearnsSyntheticStructure) {
  core::Prism5G model(tiny_config());
  model.fit(*ds_, split_.train, split_.val);
  const double rmse = predictors::evaluate_rmse(model, split_.test);
  EXPECT_LT(rmse, 0.15);  // structured synthetic data is very learnable
}

TEST_F(Prism5gTest, AggregateEqualsSumOfPerCcHeads) {
  core::Prism5G model(tiny_config());
  model.fit(*ds_, split_.train, split_.val);
  const auto& w = *split_.test.front();
  const auto agg = model.predict(w);
  const auto per_cc = model.predict_per_cc(w);
  ASSERT_EQ(per_cc.size(), ds_->cc_slots());
  for (std::size_t h = 0; h < agg.size(); ++h) {
    double sum = 0.0;
    for (const auto& cc : per_cc) sum += cc[h];
    // predict() clamps to [0, 1.5]; compare against the clamped sum.
    EXPECT_NEAR(agg[h], std::clamp(sum, 0.0, 1.5), 0.02);
  }
}

TEST_F(Prism5gTest, PerCcPredictionsTrackPerCcTargets) {
  core::Prism5G model(tiny_config());
  model.fit(*ds_, split_.train, split_.val);
  // cc0 is always active and carries most throughput; cc2/cc3 are never
  // active in the synthetic data, so their heads must output ≈ 0.
  double cc0 = 0.0, cc2 = 0.0, cc3 = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(split_.test.size(), 40); ++i) {
    const auto per_cc = model.predict_per_cc(*split_.test[i]);
    cc0 += per_cc[0].front();
    cc2 += per_cc[2].front();
    cc3 += per_cc[3].front();
    ++n;
  }
  cc0 /= n;
  cc2 /= n;
  cc3 /= n;
  EXPECT_GT(cc0, 0.25);
  EXPECT_LT(cc2, 0.08);
  EXPECT_LT(cc3, 0.08);
}

TEST_F(Prism5gTest, MaskGatesInputs) {
  // With the state mechanism on, zeroing the mask of a window must
  // change the prediction (inputs are gated by the mask).
  core::Prism5G model(tiny_config());
  model.fit(*ds_, split_.train, split_.val);
  traces::Window w = *split_.test.front();
  const auto before = model.predict(w);
  for (std::size_t t = 0; t < w.history(); ++t)
    for (std::size_t c = 0; c < w.cc_slots; ++c) w.mask(t, c) = 0.0f;
  const auto after = model.predict(w);
  double diff = 0.0;
  for (std::size_t h = 0; h < before.size(); ++h) diff += std::abs(before[h] - after[h]);
  EXPECT_GT(diff, 1e-3);
}

TEST_F(Prism5gTest, AblationsStillLearn) {
  core::Prism5G a(tiny_config(), core::Prism5G::Variant::kNoState);
  a.fit(*ds_, split_.train, split_.val);
  EXPECT_LT(predictors::evaluate_rmse(a, split_.test), 0.2);

  core::Prism5G b(tiny_config(), core::Prism5G::Variant::kNoFusion);
  b.fit(*ds_, split_.train, split_.val);
  EXPECT_LT(predictors::evaluate_rmse(b, split_.test), 0.2);
}

TEST_F(Prism5gTest, SharedEncoderKeepsParameterCountFlat) {
  // The encoder and the heads are weight-shared across CCs, so only the
  // two layers that read every slot at once grow with cc_slots: the mask
  // embedding (C·T inputs) and the fusion's input layer (C hidden states).
  TrainConfig config = tiny_config();
  config.epochs = 1;
  auto fitted_parameters = [&](std::size_t cc_slots) {
    std::vector<sim::Trace> list{test::synthetic_trace(120, 0.0),
                                 test::synthetic_trace(120, 17.0)};
    for (auto& trace : list) trace.cc_slots = cc_slots;  // pads the 4 reported CCs
    const auto ds = traces::Dataset::from_traces(list, {});
    common::Rng rng(21);
    const auto split = ds.random_split(0.6, 0.15, rng);
    core::Prism5G model(config);
    model.fit(ds, split.train, split.val);
    return static_cast<predictors::DeepPredictor&>(model).trainable_parameters();
  };
  const auto four = fitted_parameters(4);
  const auto six = fitted_parameters(6);
  ASSERT_EQ(four.size(), six.size());

  // Order: encoder, mask embedding (W, b), fusion and head (2 × (W, b) each).
  const std::size_t embed_w = four.size() - 10;
  const std::size_t fusion_w = embed_w + 2;
  std::size_t total_four = 0, total_six = 0;
  for (std::size_t i = 0; i < four.size(); ++i) {
    total_four += four[i].size();
    total_six += six[i].size();
    if (i == embed_w || i == fusion_w) continue;
    EXPECT_EQ(four[i].rows(), six[i].rows()) << "tensor " << i;
    EXPECT_EQ(four[i].cols(), six[i].cols()) << "tensor " << i;
  }
  const std::size_t t_len = 10, extra_slots = 2;
  const std::size_t embed_growth = t_len * extra_slots * core::Prism5G::kEmbedDim;
  const std::size_t fusion_growth = extra_slots * config.hidden * config.hidden;
  EXPECT_EQ(six[embed_w].size() - four[embed_w].size(), embed_growth);
  EXPECT_EQ(six[fusion_w].size() - four[fusion_w].size(), fusion_growth);
  EXPECT_EQ(total_six - total_four, embed_growth + fusion_growth);
}

TEST_F(Prism5gTest, RespondsToCaStateChange) {
  // Construct two windows identical except cc1's activation state; a
  // CA-aware model must predict higher throughput when cc1 is active.
  core::Prism5G model(tiny_config());
  model.fit(*ds_, split_.train, split_.val);

  // Find a test window where cc1 is active throughout.
  const traces::Window* active_window = nullptr;
  for (const auto* w : split_.test) {
    bool all_on = true;
    for (std::size_t t = 0; t < w->history(); ++t) all_on = all_on && w->mask(t, 1) > 0.5;
    if (all_on) {
      active_window = w;
      break;
    }
  }
  ASSERT_NE(active_window, nullptr);

  traces::Window off = *active_window;
  for (std::size_t t = 0; t < off.history(); ++t) {
    off.mask(t, 1) = 0.0f;
    for (auto& f : off.cc(t, 1)) f = 0.0f;
  }
  const double with_cc1 = model.predict(*active_window).front();
  const double without_cc1 = model.predict(off).front();
  EXPECT_GT(with_cc1, without_cc1 + 0.02);
}

}  // namespace
