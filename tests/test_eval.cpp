// Tests for the evaluation pipeline (dataset generation, model zoo).
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "eval/pipeline.hpp"
#include "test_helpers.hpp"

namespace {

using namespace ca5g;
using namespace ca5g::eval;

GenerationConfig tiny_gen() { return test::tiny_generation(); }

TEST(Pipeline, SixSubDatasetsInTableOrder) {
  const auto all = all_sub_datasets();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].label(), "OpX (Walking)");
  EXPECT_EQ(all[5].label(), "OpZ (Driving)");
}

TEST(Pipeline, TimeScaleNames) {
  EXPECT_EQ(time_scale_name(TimeScale::kShort), "Short(10ms)");
  EXPECT_EQ(time_scale_name(TimeScale::kLong), "Long(1s)");
}

TEST(Pipeline, ShortScaleTraces) {
  const auto traces_vec =
      generate_traces({ran::OperatorId::kOpZ, sim::Mobility::kDriving},
                      TimeScale::kShort, tiny_gen());
  ASSERT_EQ(traces_vec.size(), 2u);
  EXPECT_DOUBLE_EQ(traces_vec.front().step_s, 0.01);
  EXPECT_EQ(traces_vec.front().samples.size(), 800u);
}

TEST(Pipeline, LongScaleTracesAreResampledTo1s) {
  const auto traces_vec =
      generate_traces({ran::OperatorId::kOpZ, sim::Mobility::kWalking},
                      TimeScale::kLong, tiny_gen());
  EXPECT_DOUBLE_EQ(traces_vec.front().step_s, 1.0);
  EXPECT_EQ(traces_vec.front().samples.size(), 40u);
}

TEST(Pipeline, MlDatasetHasWindows) {
  const auto ds = make_ml_dataset({ran::OperatorId::kOpZ, sim::Mobility::kDriving},
                                  TimeScale::kShort, tiny_gen());
  EXPECT_GT(ds.windows().size(), 50u);
  EXPECT_EQ(ds.history(), 10u);
  EXPECT_EQ(ds.horizon(), 10u);
}

TEST(Pipeline, TracesDifferAcrossSeedsWithinDataset) {
  const auto traces_vec =
      generate_traces({ran::OperatorId::kOpZ, sim::Mobility::kDriving},
                      TimeScale::kShort, tiny_gen());
  EXPECT_NE(traces_vec[0].samples[500].aggregate_tput_mbps,
            traces_vec[1].samples[500].aggregate_tput_mbps);
}

TEST(Pipeline, ModelZooConstructsEveryName) {
  for (const char* name :
       {"Prophet", "HarmonicMean", "LSTM", "TCN", "Lumos5G", "Prism5G", "Prism5G-nostate",
        "Prism5G-nofusion"}) {
    const auto model = make_predictor(name);
    ASSERT_NE(model, nullptr) << name;
  }
  EXPECT_THROW((void)make_predictor("DoesNotExist"), common::CheckError);
}

TEST(Pipeline, AblationNamesPropagate) {
  EXPECT_EQ(make_predictor("Prism5G-nostate")->name(), "Prism5G(no-state)");
  EXPECT_EQ(make_predictor("Prism5G-nofusion")->name(), "Prism5G(no-fusion)");
}

TEST(Pipeline, TrainAndEvaluateSmoke) {
  const auto ds = make_ml_dataset({ran::OperatorId::kOpZ, sim::Mobility::kDriving},
                                  TimeScale::kShort, tiny_gen());
  common::Rng rng(5);
  const auto split = ds.random_split(0.5, 0.2, rng);
  auto prophet = make_predictor("Prophet");
  const double rmse = train_and_evaluate(*prophet, ds, split);
  EXPECT_GT(rmse, 0.0);
  EXPECT_LT(rmse, 1.0);
}

TEST(Pipeline, EvaluateModelsKeepsNameOrderAtAnyThreadCount) {
  const auto ds = make_ml_dataset({ran::OperatorId::kOpZ, sim::Mobility::kDriving},
                                  TimeScale::kShort, tiny_gen());
  common::Rng rng(5);
  const auto split = ds.random_split(0.5, 0.2, rng);
  // Two deep models train side by side on the pool: each fit is seeded by
  // its own TrainConfig, so the scores must match the serial run bit for
  // bit (the Table benches rely on it).
  const std::vector<std::string> names = {"Prophet", "LSTM", "Prism5G"};

  const auto serial = evaluate_models(names, ds, split, /*threads=*/1);
  const auto pooled = evaluate_models(names, ds, split, /*threads=*/3);
  ASSERT_EQ(serial.size(), names.size());
  ASSERT_EQ(pooled.size(), names.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].name, names[i]);
    EXPECT_EQ(pooled[i].name, names[i]);
    EXPECT_EQ(serial[i].rmse, pooled[i].rmse) << names[i];
    EXPECT_GT(serial[i].rmse, 0.0);
  }
}

}  // namespace
