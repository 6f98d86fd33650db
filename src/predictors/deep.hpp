// Deep-learning baselines (paper §6.1), faithful to their citations:
//  * LSTM [28] (Mei et al.) — recurrent forecaster over the aggregate
//    bandwidth history.
//  * TCN [9] (Chen et al.) — temporal-convolutional forecaster over the
//    same history.
//  * Lumos5G [32] — the Seq2Seq architecture with generic (non-mmWave)
//    context features: throughput history + RRC event flag + CC count.
// None of them models individual component carriers — that is exactly
// the gap Prism5G fills (paper §5: existing approaches "blindly predict
// overall throughput").
#pragma once

#include <memory>

#include "nn/infer.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "predictors/predictor.hpp"

namespace ca5g::predictors {

/// Shared mini-batch supervised training loop with validation-based
/// early stopping and best-checkpoint restore. Subclasses define the
/// network; the base class owns fit/predict mechanics.
class DeepPredictor : public Predictor {
 public:
  explicit DeepPredictor(TrainConfig config) : config_(config) {}

  void fit(const traces::Dataset& ds, std::span<const traces::Window* const> train,
           std::span<const traces::Window* const> val) final;

  /// predict_many() of the one window.
  [[nodiscard]] std::vector<double> predict(const traces::Window& w) const final;

  /// Real batched inference: chunks `windows` into forward_batch calls
  /// of at most the training batch size, so a serving micro-batch costs
  /// one forward pass instead of one per window. Every window must have
  /// the first window's history (CHECKed).
  [[nodiscard]] std::vector<std::vector<double>> predict_many(
      std::span<const traces::Window* const> windows) const final;

  /// Validation RMSE per epoch of the last fit: its size is the number
  /// of epochs run (empty without a validation set).
  [[nodiscard]] const std::vector<double>& val_history() const noexcept {
    return val_history_;
  }
  /// Index into val_history() of the epoch whose weights the last fit
  /// restored.
  [[nodiscard]] std::size_t best_epoch() const noexcept { return best_epoch_; }
  /// The most epochs a fit runs (TrainConfig::epochs).
  [[nodiscard]] std::size_t max_epochs() const noexcept { return config_.epochs; }
  /// Wall-clock seconds the last fit took, from build() to its plan.
  [[nodiscard]] double fit_seconds() const noexcept { return fit_seconds_; }

  /// All trainable parameters, sharing storage with the network; call
  /// after fit(). The order is fixed per model (the golden-model test
  /// digests the trained weights in this order).
  [[nodiscard]] virtual std::vector<nn::Tensor> trainable_parameters() = 0;

  /// Toggle the compiled graph-free inference path (on by default).
  /// With it off, predict() and predict_many() run the autograd graph,
  /// which stays the reference oracle for the plan's bit-identity tests.
  void set_fast_path(bool enabled) noexcept { fast_path_enabled_ = enabled; }

  /// True when predictions run the compiled plan instead of the graph.
  [[nodiscard]] bool fast_path_active() const noexcept { return fast_path_enabled_; }

  /// A compiled graph-free forward: stages window features straight
  /// into arena buffers and runs nn::infer kernels against weights
  /// packed at compile_plan() time. run() writes (batch × horizon)
  /// normalized predictions into `out` (arena-backed, sized by the
  /// caller) and must reproduce forward_batch(batch, training=false)
  /// bit-for-bit. Plans are immutable once built — concurrent run()
  /// calls on a shared model are safe, each with its own arena.
  class InferencePlan {
   public:
    virtual ~InferencePlan() = default;
    virtual void run(std::span<const traces::Window* const> batch,
                     nn::infer::Arena& arena, float* out) const = 0;
  };

 protected:
  /// Compile this model's plan from the current weights, after build().
  /// fit() compiles one per validation pass to score that epoch's
  /// weights, and one last, which it keeps after CHECKing that it got
  /// one, so plans never go stale: weights only change through fit().
  [[nodiscard]] virtual std::unique_ptr<InferencePlan> compile_plan() const = 0;

  /// Construct layers for the dataset's dimensions.
  virtual void build(const traces::Dataset& ds, common::Rng& rng) = 0;
  /// Forward a batch → (batch × horizon) normalized predictions.
  /// `training` enables teacher forcing where applicable.
  [[nodiscard]] virtual nn::Tensor forward_batch(
      std::span<const traces::Window* const> batch, bool training) const = 0;

  /// Append `rows` prediction rows of `horizon` normalized floats to
  /// `out`, each value clamped to [0, 1.5] — the one output step of the
  /// plan and the graph.
  static void append_clamped_rows(const float* pred, std::size_t rows,
                                  std::size_t horizon,
                                  std::vector<std::vector<double>>& out);

  /// Training loss for one batch; default is MSE of the aggregate
  /// prediction. Prism5G overrides this to add per-CC supervision.
  [[nodiscard]] virtual nn::Tensor compute_loss(
      std::span<const traces::Window* const> batch);

  /// What each step's input vector contains.
  enum class InputMode {
    kThroughputOnly,        ///< [agg_tput] — classic bandwidth forecasting
    kThroughputPlusGlobal,  ///< [agg_tput, global...] — generic context
  };

  /// Sequence of T input tensors for a batch under an input mode.
  [[nodiscard]] static std::vector<nn::Tensor> make_sequence(
      std::span<const traces::Window* const> batch, InputMode mode);

  /// Input width of one step under a mode.
  [[nodiscard]] static std::size_t input_dim(InputMode mode);
  /// Target tensor (batch × horizon).
  [[nodiscard]] static nn::Tensor make_target(std::span<const traces::Window* const> batch,
                                              std::size_t horizon);

  TrainConfig config_;
  std::size_t horizon_ = 10;

 private:
  [[nodiscard]] std::vector<std::vector<float>> snapshot_parameters();
  void restore_parameters(const std::vector<std::vector<float>>& snapshot);

  /// Run the compiled plan on one micro-batch (at most batch_size
  /// windows) and append the clamped prediction rows to `out`.
  void run_plan(std::span<const traces::Window* const> batch,
                std::vector<std::vector<double>>& out) const;

  std::vector<double> val_history_;
  std::size_t best_epoch_ = 0;
  double fit_seconds_ = 0.0;
  std::unique_ptr<InferencePlan> plan_;
  bool fast_path_enabled_ = true;
};

/// Plain LSTM over flattened features → linear head (baseline "LSTM").
class LstmPredictor final : public DeepPredictor {
 public:
  explicit LstmPredictor(TrainConfig config = train_config_from_env())
      : DeepPredictor(config) {}
  [[nodiscard]] std::string name() const override { return "LSTM"; }

 protected:
  void build(const traces::Dataset& ds, common::Rng& rng) override;
  [[nodiscard]] nn::Tensor forward_batch(std::span<const traces::Window* const> batch,
                                         bool training) const override;
  [[nodiscard]] std::vector<nn::Tensor> trainable_parameters() override;
  [[nodiscard]] std::unique_ptr<InferencePlan> compile_plan() const override;

 private:
  std::unique_ptr<nn::Lstm> lstm_;
  std::unique_ptr<nn::Linear> head_;
};

/// Temporal convolutional network: stacked causal dilated convolutions.
class TcnPredictor final : public DeepPredictor {
 public:
  explicit TcnPredictor(TrainConfig config = train_config_from_env())
      : DeepPredictor(config) {}
  [[nodiscard]] std::string name() const override { return "TCN"; }

 protected:
  void build(const traces::Dataset& ds, common::Rng& rng) override;
  [[nodiscard]] nn::Tensor forward_batch(std::span<const traces::Window* const> batch,
                                         bool training) const override;
  [[nodiscard]] std::vector<nn::Tensor> trainable_parameters() override;
  [[nodiscard]] std::unique_ptr<InferencePlan> compile_plan() const override;

 private:
  std::vector<nn::CausalConv1d> convs_;
  std::unique_ptr<nn::Linear> head_;
};

/// Lumos5G-style Seq2Seq: LSTM encoder, LSTM decoder unrolled over the
/// horizon with teacher forcing during training.
class Lumos5gPredictor final : public DeepPredictor {
 public:
  explicit Lumos5gPredictor(TrainConfig config = train_config_from_env())
      : DeepPredictor(config) {}
  [[nodiscard]] std::string name() const override { return "Lumos5G"; }

 protected:
  void build(const traces::Dataset& ds, common::Rng& rng) override;
  [[nodiscard]] nn::Tensor forward_batch(std::span<const traces::Window* const> batch,
                                         bool training) const override;
  [[nodiscard]] std::vector<nn::Tensor> trainable_parameters() override;
  [[nodiscard]] std::unique_ptr<InferencePlan> compile_plan() const override;

 private:
  std::unique_ptr<nn::Lstm> encoder_;
  std::unique_ptr<nn::Lstm> decoder_;
  std::unique_ptr<nn::Linear> out_;
};

}  // namespace ca5g::predictors
