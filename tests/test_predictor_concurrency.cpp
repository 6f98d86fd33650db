// Concurrent inference safety: the serving path calls predict() /
// predict_many() on one shared fitted predictor from several worker
// threads at once, so inference must be a pure read of the trained
// state. These tests hammer a shared instance from 4 threads and check
// every result against a single-threaded reference — run them under
// -DPRISM5G_SANITIZE=thread and TSan will flag any data race in the
// tensor graph or predictor internals.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/prism5g.hpp"
#include "predictors/deep.hpp"
#include "predictors/naive.hpp"
#include "test_helpers.hpp"

namespace {

using namespace ca5g;
using namespace ca5g::predictors;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kRounds = 8;

/// Runs `model.predict` over every test window from kThreads threads
/// concurrently (kRounds passes each) and requires bit-identical
/// agreement with a single-threaded reference pass.
void expect_concurrent_predictions_match(const Predictor& model,
                                         const traces::Dataset::Split& split) {
  ASSERT_FALSE(split.test.empty());
  std::vector<std::vector<double>> reference;
  reference.reserve(split.test.size());
  for (const auto* w : split.test) reference.push_back(model.predict(*w));

  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        // Stagger start positions so threads touch different windows at
        // the same instant more often than not.
        for (std::size_t i = 0; i < split.test.size(); ++i) {
          const std::size_t j = (i + t * split.test.size() / kThreads) % split.test.size();
          if (model.predict(*split.test[j]) != reference[j]) {
            failures[t] = "thread " + std::to_string(t) + " diverged on window " +
                          std::to_string(j);
            return;
          }
        }
        // Batched entry point shares the same state; exercise it too.
        const auto many = model.predict_many(split.test);
        for (std::size_t j = 0; j < many.size(); ++j) {
          if (many[j] != reference[j]) {
            failures[t] = "thread " + std::to_string(t) +
                          " predict_many diverged on window " + std::to_string(j);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;
}

TEST(PredictorConcurrency, HarmonicMeanSharedInstance) {
  const auto ds = test::synthetic_dataset(2, 260);
  common::Rng rng(11);
  const auto split = ds.random_split(0.5, 0.2, rng);
  HarmonicMeanPredictor model;
  model.fit(ds, split.train, split.val);
  expect_concurrent_predictions_match(model, split);
}

TEST(PredictorConcurrency, LstmSharedInstance) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(13);
  const auto split = ds.random_split(0.5, 0.2, rng);
  TrainConfig config;
  config.epochs = 2;
  config.hidden = 8;
  config.layers = 1;
  config.batch_size = 32;
  LstmPredictor model(config);
  model.fit(ds, split.train, split.val);
  expect_concurrent_predictions_match(model, split);
}

// eval::evaluate_models trains the Table benches' models side by side
// on the pool: each fit must touch nothing but its own model, so two
// fits on two threads at once predict exactly what serial fits do.
TEST(PredictorConcurrency, DeepModelsFitSideBySide) {
  const auto ds = test::synthetic_dataset(2, 120);
  common::Rng rng(14);
  const auto split = ds.random_split(0.5, 0.2, rng);
  TrainConfig config;
  config.epochs = 1;
  config.hidden = 8;
  config.layers = 1;
  config.batch_size = 32;
  auto make_models = [&] {
    std::vector<std::unique_ptr<DeepPredictor>> models;
    models.push_back(std::make_unique<LstmPredictor>(config));
    models.push_back(std::make_unique<core::Prism5G>(config));
    return models;
  };
  const auto serial = make_models();
  for (const auto& model : serial) model->fit(ds, split.train, split.val);

  const auto side_by_side = make_models();
  std::vector<std::thread> threads;
  for (const auto& model : side_by_side)
    threads.emplace_back([&, m = model.get()] { m->fit(ds, split.train, split.val); });
  for (auto& th : threads) th.join();

  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_TRUE(serial[i]->predict_many(split.test) == side_by_side[i]->predict_many(split.test))
        << serial[i]->name();
}

}  // namespace
