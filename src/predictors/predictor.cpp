#include "predictors/predictor.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace ca5g::predictors {
namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::strtol(v, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

}  // namespace

TrainConfig train_config_from_env() {
  TrainConfig config;
  config.epochs = env_size("CA5G_EPOCHS", config.epochs);
  config.hidden = env_size("CA5G_HIDDEN", config.hidden);
  config.batch_size = env_size("CA5G_BATCH", config.batch_size);
  if (const char* fast = std::getenv("CA5G_FAST"); fast && fast[0] == '1') {
    // Fast mode trims epochs but keeps the model capacity: an
    // under-sized Prism5G inverts every comparison downstream.
    config.epochs = std::max<std::size_t>(14, config.epochs / 2);
  }
  return config;
}

std::vector<std::vector<double>> Predictor::predict_many(
    std::span<const traces::Window* const> windows) const {
  std::vector<std::vector<double>> out;
  out.reserve(windows.size());
  for (const traces::Window* w : windows) out.push_back(predict(*w));
  return out;
}

double evaluate_rmse(const Predictor& model,
                     std::span<const traces::Window* const> test) {
  CA5G_CHECK_MSG(!test.empty(), "evaluate_rmse on empty test set");
  CA5G_METRIC_HISTOGRAM(inference_ns, "predictor.inference_ns");
  CA5G_METRIC_COUNTER(samples, "predictor.samples_total");
  samples.inc(test.size());
  const auto predictions = [&] {
    CA5G_SCOPED_TIMER(inference_ns);
    return model.predict_many(test);
  }();
  // Prediction/truth pairs, truncated to each window's available target.
  std::vector<double> pred, truth;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const auto& p = predictions[i];
    const traces::Window* w = test[i];
    const std::size_t n = std::min(p.size(), w->target.size());
    pred.insert(pred.end(), p.begin(), p.begin() + static_cast<std::ptrdiff_t>(n));
    truth.insert(truth.end(), w->target.begin(),
                 w->target.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return common::rmse(pred, truth);
}

}  // namespace ca5g::predictors
