// Prism5G — the paper's CA-aware deep-learning throughput predictor
// (§5). Three principles, mirrored here one-to-one:
//
//  1. Per-CC modeling (blue in Fig. 16): a weights-SHARED LSTM encodes
//     each component carrier's feature sequence X_c → h_c.
//  2. CA event monitoring (green): RRC signaling is translated into a
//     binary activation mask I ∈ {0,1}^{C×T}; inputs are gated
//     X'_c = X_c ⊙ I, and an embedding turns I into a dense context E.
//  3. Fusion learning (orange): h_f = Fusion([h_1..h_C, E]) captures
//     the inter-carrier interplay; each head then predicts its CC's
//     future throughput from h'_c = h_c + h_f, and the aggregate is
//     y = Σ_c MLP(h'_c).
//
// The two ablation variants reproduce Table 13: kNoState drops the mask
// gating + embedding ("No State"), kNoFusion the fusion module ("No
// Fusion").
#pragma once

#include <memory>

#include "predictors/deep.hpp"

namespace ca5g::core {

class Prism5G final : public predictors::DeepPredictor {
 public:
  /// The full model or one of the Table-13 ablations.
  enum class Variant { kFull, kNoState, kNoFusion };
  /// Dense mask-embedding width.
  static constexpr std::size_t kEmbedDim = 16;

  explicit Prism5G(predictors::TrainConfig train = predictors::train_config_from_env(),
                   Variant variant = Variant::kFull);

  [[nodiscard]] std::string name() const override;

  /// Per-CC future throughput predictions for one window (normalized):
  /// [C][H]. The aggregate prediction is their sum (paper Figs. 33–34).
  [[nodiscard]] std::vector<std::vector<double>> predict_per_cc(
      const traces::Window& w) const;

 protected:
  void build(const traces::Dataset& ds, common::Rng& rng) override;
  [[nodiscard]] nn::Tensor forward_batch(std::span<const traces::Window* const> batch,
                                         bool training) const override;
  [[nodiscard]] std::vector<nn::Tensor> trainable_parameters() override;
  [[nodiscard]] nn::Tensor compute_loss(
      std::span<const traces::Window* const> batch) override;
  /// Compiled plan covering the full model and both ablations
  /// (no-state / no-fusion).
  [[nodiscard]] std::unique_ptr<InferencePlan> compile_plan() const override;

 private:
  /// Per-CC input sequences ([C] of [T] tensors batch × F'), mask-gated
  /// when the state mechanism is on. Each CC's features are augmented
  /// with the shared context so encoders see the same information the
  /// flat baselines do (paper Table 3: HisTput + signaling are inputs).
  [[nodiscard]] std::vector<std::vector<nn::Tensor>> make_cc_sequences(
      std::span<const traces::Window* const> batch) const;
  /// Flattened binary mask (batch × C·T) for the embedding.
  [[nodiscard]] nn::Tensor make_mask_matrix(
      std::span<const traces::Window* const> batch) const;
  /// Per-CC head outputs ([C] of batch × H tensors).
  [[nodiscard]] std::vector<nn::Tensor> forward_per_cc(
      std::span<const traces::Window* const> batch) const;

  /// State-trigger mechanism (mask gating + embedding).
  [[nodiscard]] bool use_state() const noexcept { return variant_ != Variant::kNoState; }
  /// Fusion-learning module.
  [[nodiscard]] bool use_fusion() const noexcept { return variant_ != Variant::kNoFusion; }

  Variant variant_;
  std::size_t cc_slots_ = 4;

  std::unique_ptr<nn::Lstm> encoder_;      ///< weights shared across CCs
  std::unique_ptr<nn::Linear> mask_embed_; ///< sparse mask → dense E
  std::unique_ptr<nn::Mlp> fusion_;
  std::unique_ptr<nn::Mlp> head_;          ///< weights shared across CCs
};

}  // namespace ca5g::core
