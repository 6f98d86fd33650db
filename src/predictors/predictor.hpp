// Common throughput-predictor interface (paper §6.1): every model is
// fitted on normalized windows and predicts the H-step future aggregate
// throughput (normalized). The evaluation harness, transition-zone
// plots, and both QoE applications swap predictors through this
// interface exactly as §7 swaps them inside ViVo and MPC.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "traces/dataset.hpp"

namespace ca5g::predictors {

/// Training hyper-parameters shared by the deep models (paper §C.1:
/// Adam, lr 0.01, batch 128, hidden 128, 2 layers, max 200 epochs; we
/// default to CPU-sized equivalents and honour env overrides).
struct TrainConfig {
  std::size_t epochs = 30;
  std::size_t batch_size = 64;
  float lr = 0.01f;
  std::size_t hidden = 32;
  std::size_t layers = 2;
  std::size_t patience = 6;   ///< early-stop patience (validation RMSE)
  std::uint64_t seed = 1234;
};

/// Config with CA5G_EPOCHS / CA5G_HIDDEN / CA5G_BATCH / CA5G_FAST env
/// overrides applied (CA5G_FAST=1 sets epochs to max(14, epochs / 2) and
/// keeps the hidden width).
[[nodiscard]] TrainConfig train_config_from_env();

/// Abstract throughput predictor.
class Predictor {
 public:
  virtual ~Predictor() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Fit on training windows; `val` guides model selection/early stop.
  virtual void fit(const traces::Dataset& ds,
                   std::span<const traces::Window* const> train,
                   std::span<const traces::Window* const> val) = 0;

  /// Predict the normalized aggregate throughput for the full horizon.
  [[nodiscard]] virtual std::vector<double> predict(const traces::Window& w) const = 0;

  /// Batched prediction: one horizon vector per input window, in order.
  /// The default loops over predict(); models with a real batched
  /// forward pass (the deep family) override it so a serving batch
  /// costs one forward instead of |windows|. Must be thread-safe on a
  /// fitted model, like predict() — the serving layer calls it from
  /// several worker threads concurrently.
  [[nodiscard]] virtual std::vector<std::vector<double>> predict_many(
      std::span<const traces::Window* const> windows) const;
};

/// RMSE of a fitted predictor over test windows (all horizon steps),
/// in normalized units — directly comparable to the paper's Table 4.
[[nodiscard]] double evaluate_rmse(const Predictor& model,
                                   std::span<const traces::Window* const> test);

}  // namespace ca5g::predictors
