// Neural network layers built on the autograd Tensor: Linear, MLP,
// LSTM (cell and multi-layer sequence module), and a causal dilated
// Conv1d for the TCN baseline. All layers expose their parameters
// for the optimizer and support seeded initialization.
#pragma once

#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace ca5g::nn {

/// Base class for anything holding trainable parameters.
class Module {
 public:
  virtual ~Module() = default;
  /// All trainable parameter tensors (shared storage with the module).
  [[nodiscard]] virtual std::vector<Tensor> parameters() = 0;
};

/// Fully connected layer: y = x·W + b, with x as (batch × in).
class Linear final : public Module {
 public:
  Linear(common::Rng& rng, std::size_t in_features, std::size_t out_features);

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  [[nodiscard]] std::vector<Tensor> parameters() override;

  /// Read-only weight views for the inference fast path's plan compiler
  /// (nn/infer.hpp), which snapshots them into a packed layout.
  [[nodiscard]] const Tensor& weight() const noexcept { return weight_; }
  [[nodiscard]] const Tensor& bias() const noexcept { return bias_; }

 private:
  std::size_t in_;
  Tensor weight_;  ///< in × out
  Tensor bias_;    ///< 1 × out
};

/// Multi-layer perceptron with ReLU activations between layers.
class Mlp final : public Module {
 public:
  /// dims = {in, hidden..., out}; at least {in, out}.
  Mlp(common::Rng& rng, const std::vector<std::size_t>& dims);

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  [[nodiscard]] std::vector<Tensor> parameters() override;

  [[nodiscard]] const std::vector<Linear>& layers() const noexcept { return layers_; }

 private:
  std::vector<Linear> layers_;
};

/// One LSTM cell. Gate layout along columns: [i, f, g, o].
class LstmCell final : public Module {
 public:
  LstmCell(common::Rng& rng, std::size_t input_size, std::size_t hidden_size);

  struct State {
    Tensor h;  ///< batch × hidden
    Tensor c;  ///< batch × hidden
  };

  /// Zero state for a batch size.
  [[nodiscard]] State zero_state(std::size_t batch) const;

  /// One time step.
  [[nodiscard]] State step(const Tensor& x, const State& state) const;

  [[nodiscard]] std::vector<Tensor> parameters() override;
  [[nodiscard]] std::size_t hidden_size() const noexcept { return hidden_; }
  [[nodiscard]] std::size_t input_size() const noexcept { return input_; }

  [[nodiscard]] const Tensor& w_ih() const noexcept { return w_ih_; }
  [[nodiscard]] const Tensor& w_hh() const noexcept { return w_hh_; }
  [[nodiscard]] const Tensor& bias() const noexcept { return bias_; }

 private:
  std::size_t input_;
  std::size_t hidden_;
  Tensor w_ih_;  ///< input × 4·hidden
  Tensor w_hh_;  ///< hidden × 4·hidden
  Tensor bias_;  ///< 1 × 4·hidden
};

/// Stacked LSTM over a sequence of (batch × features) tensors.
class Lstm final : public Module {
 public:
  Lstm(common::Rng& rng, std::size_t input_size, std::size_t hidden_size,
       std::size_t num_layers);

  /// Process a sequence from the zero state and return the final (h, c)
  /// state of every layer — used to initialize Seq2Seq decoders (Lumos5G
  /// baseline).
  [[nodiscard]] std::vector<LstmCell::State> final_states(
      std::span<const Tensor> sequence) const;

  /// Run one step given explicit per-layer states (decoder unrolling).
  [[nodiscard]] Tensor step_with_states(const Tensor& x,
                                        std::vector<LstmCell::State>& states) const;

  /// Final top-layer hidden state only.
  [[nodiscard]] Tensor last_hidden(std::span<const Tensor> sequence) const;

  [[nodiscard]] std::vector<Tensor> parameters() override;
  [[nodiscard]] std::size_t hidden_size() const noexcept;

  [[nodiscard]] const std::vector<LstmCell>& cells() const noexcept { return cells_; }

 private:
  std::vector<LstmCell> cells_;
};

/// Causal dilated 1-D convolution over a sequence of (batch × channels)
/// tensors: y_t = b + Σ_k x_{t−k·dilation}·W_k (zero padded at t<0).
class CausalConv1d final : public Module {
 public:
  CausalConv1d(common::Rng& rng, std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_size, std::size_t dilation);

  [[nodiscard]] std::vector<Tensor> forward(std::span<const Tensor> sequence) const;
  [[nodiscard]] std::vector<Tensor> parameters() override;

  [[nodiscard]] std::size_t kernel_size() const noexcept { return kernel_; }
  [[nodiscard]] std::size_t dilation() const noexcept { return dilation_; }
  [[nodiscard]] const std::vector<Tensor>& taps() const noexcept { return taps_; }
  [[nodiscard]] const Tensor& bias() const noexcept { return bias_; }

 private:
  std::size_t kernel_;
  std::size_t dilation_;
  std::vector<Tensor> taps_;  ///< kernel_size of (in × out)
  Tensor bias_;               ///< 1 × out
};

}  // namespace ca5g::nn
