// Unit tests for ML dataset construction: windowing, normalization,
// splits, and the streaming window builder.
#include <gtest/gtest.h>

#include <set>

#include "common/contracts.hpp"
#include "sim/engine.hpp"
#include "traces/dataset.hpp"

namespace {

using namespace ca5g;

std::vector<sim::Trace> make_traces(std::size_t n = 3, double duration = 8.0) {
  std::vector<sim::Trace> out;
  for (std::size_t i = 0; i < n; ++i) {
    sim::ScenarioConfig config;
    config.op = ran::OperatorId::kOpZ;
    config.mobility = sim::Mobility::kDriving;
    config.duration_s = duration;
    config.step_s = 0.01;
    config.seed = 100 + i;
    out.push_back(sim::run_scenario(config));
  }
  return out;
}

TEST(Dataset, WindowCountsMatchSpec) {
  const auto traces_vec = make_traces(2, 5.0);  // 500 samples each
  traces::DatasetSpec spec;
  spec.history = 10;
  spec.horizon = 10;
  spec.stride = 5;
  const auto ds = traces::Dataset::from_traces(traces_vec, spec);
  // Per trace: floor((500 - 20) / 5) + 1 = 97.
  EXPECT_EQ(ds.windows().size(), 2u * 97u);
  EXPECT_EQ(ds.history(), 10u);
  EXPECT_EQ(ds.horizon(), 10u);
  EXPECT_EQ(ds.cc_slots(), 4u);
}

TEST(Dataset, WindowShapes) {
  const auto ds = traces::Dataset::from_traces(make_traces(1, 5.0), {});
  const auto& w = ds.windows().front();
  EXPECT_EQ(w.history(), 10u);
  EXPECT_EQ(w.cc_slots, 4u);
  EXPECT_EQ(w.cc(0, 0).size(), traces::kCcFeatureDim);
  // Per row: 4 CCs x 13 features, 2 globals, the aggregate, 4 mask bits.
  EXPECT_EQ(traces::step_dim(4), 4 * traces::kCcFeatureDim + traces::kGlobalFeatureDim + 1 + 4);
  EXPECT_EQ(w.steps.size(), 10u * traces::step_dim(4));
  EXPECT_EQ(w.target.size(), 10u);
  EXPECT_EQ(w.cc_target.size(), 10u * 4u);
}

TEST(Dataset, FeaturesAreNormalized) {
  const auto ds = traces::Dataset::from_traces(make_traces(2, 5.0), {});
  for (const auto& w : ds.windows()) {
    for (std::size_t t = 0; t < w.history(); ++t)
      for (std::size_t c = 0; c < w.cc_slots; ++c)
        for (double f : w.cc(t, c)) {
          EXPECT_GE(f, -1e-9);
          EXPECT_LE(f, 1.5);
        }
    for (double t : w.target) {
      EXPECT_GE(t, 0.0);
      EXPECT_LE(t, 1.0 + 1e-9);
    }
  }
}

TEST(Dataset, MaskMatchesActiveFeature) {
  const auto ds = traces::Dataset::from_traces(make_traces(1, 5.0), {});
  for (const auto& w : ds.windows())
    for (std::size_t t = 0; t < w.history(); ++t)
      for (std::size_t c = 0; c < w.cc_slots; ++c)
        EXPECT_DOUBLE_EQ(w.mask(t, c), w.cc(t, c)[traces::kFeatActive]);
}

TEST(Dataset, CcTargetsSumToAggregateTarget) {
  const auto ds = traces::Dataset::from_traces(make_traces(1, 5.0), {});
  for (const auto& w : ds.windows())
    for (std::size_t h = 0; h < w.target.size(); ++h) {
      double sum = 0.0;
      for (std::size_t c = 0; c < w.cc_slots; ++c) sum += w.cc_target_at(h, c);
      // Aggregate includes multiplexing inefficiency: sum ≥ aggregate.
      EXPECT_GE(sum + 1e-9, w.target[h]);
      EXPECT_LE(w.target[h], sum + 1e-9);
      EXPECT_GT(sum, w.target[h] * 0.9);
    }
}

TEST(Dataset, FlattenStepDimension) {
  const auto ds = traces::Dataset::from_traces(make_traces(1, 5.0), {});
  const auto& w = ds.windows().front();
  EXPECT_EQ(traces::flat_dim(ds.cc_slots()),
            4 * traces::kCcFeatureDim + traces::kGlobalFeatureDim + 1);
  EXPECT_EQ(w.steps.size(), w.history() * traces::step_dim(ds.cc_slots()));
  // Row order: every CC's features, then the globals, then the aggregate.
  const float* row = w.steps.data() + traces::step_dim(ds.cc_slots());  // step 1
  for (std::size_t c = 0; c < 4; ++c)
    for (std::size_t f = 0; f < traces::kCcFeatureDim; ++f)
      EXPECT_EQ(row[c * traces::kCcFeatureDim + f], w.cc(1, c)[f]);
  for (std::size_t g = 0; g < traces::kGlobalFeatureDim; ++g)
    EXPECT_EQ(row[4 * traces::kCcFeatureDim + g], w.global(1, g));
  EXPECT_EQ(row[traces::flat_dim(ds.cc_slots()) - 1], w.agg(1));
}

TEST(Dataset, RandomSplitFractionsAndDisjointness) {
  const auto ds = traces::Dataset::from_traces(make_traces(3, 6.0), {});
  common::Rng rng(1);
  const auto split = ds.random_split(0.5, 0.2, rng);
  const auto total = ds.windows().size();
  EXPECT_NEAR(static_cast<double>(split.train.size()) / total, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(split.val.size()) / total, 0.2, 0.02);
  EXPECT_EQ(split.train.size() + split.val.size() + split.test.size(), total);
  std::set<const traces::Window*> seen;
  for (const auto* w : split.train) EXPECT_TRUE(seen.insert(w).second);
  for (const auto* w : split.val) EXPECT_TRUE(seen.insert(w).second);
  for (const auto* w : split.test) EXPECT_TRUE(seen.insert(w).second);
}

TEST(Dataset, TraceSplitKeepsTracesApart) {
  const auto ds = traces::Dataset::from_traces(make_traces(4, 5.0), {});
  common::Rng rng(2);
  const auto split = ds.trace_split(0.5, 0.2, rng);
  std::set<std::size_t> train_traces, test_traces;
  for (const auto* w : split.train) train_traces.insert(w->trace_id);
  for (const auto* w : split.val) train_traces.insert(w->trace_id);
  for (const auto* w : split.test) test_traces.insert(w->trace_id);
  for (auto id : test_traces) EXPECT_FALSE(train_traces.count(id));
}

TEST(Dataset, BadSplitFractionsThrow) {
  const auto ds = traces::Dataset::from_traces(make_traces(1, 5.0), {});
  common::Rng rng(3);
  EXPECT_THROW((void)ds.random_split(0.8, 0.3, rng), common::CheckError);
  EXPECT_THROW((void)ds.random_split(0.0, 0.2, rng), common::CheckError);
}

TEST(Dataset, BuildWindowStreaming) {
  const auto traces_vec = make_traces(1, 5.0);
  const auto& samples = traces_vec.front().samples;
  traces::DatasetSpec spec;
  // Mid-trace window with full targets.
  const auto w = traces::build_window(samples, 100, spec, 4, 1000.0);
  EXPECT_EQ(w.target.size(), 10u);
  // Window at the very end: allow_short_target truncates.
  const auto tail =
      traces::build_window(samples, samples.size() - 12, spec, 4, 1000.0, true);
  EXPECT_EQ(tail.history(), 10u);
  EXPECT_EQ(tail.target.size(), 2u);
  // Without allow_short_target the same call is rejected.
  EXPECT_THROW(
      (void)traces::build_window(samples, samples.size() - 12, spec, 4, 1000.0),
      common::CheckError);
}

TEST(Dataset, BuildWindowRejectsMoreCcsThanSlots) {
  auto samples = make_traces(1, 1.0).front().samples;
  traces::DatasetSpec spec;
  ASSERT_EQ(samples[3].ccs.size(), 4u);
  samples[3].ccs.push_back(samples[3].ccs.front());  // cc_slots + 1 CCs
  EXPECT_THROW((void)traces::build_window(samples, 0, spec, 4, 1000.0),
               common::CheckError);
}

TEST(Dataset, EmptyInputsRejected) {
  EXPECT_THROW((void)traces::Dataset::from_traces({}, {}), common::CheckError);
  const auto traces_vec = make_traces(1, 5.0);
  traces::DatasetSpec bad;
  bad.history = 0;
  EXPECT_THROW((void)traces::Dataset::from_traces(traces_vec, bad), common::CheckError);
}

}  // namespace
