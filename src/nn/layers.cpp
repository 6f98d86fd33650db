#include "nn/layers.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace ca5g::nn {
namespace {

/// Xavier/Glorot-style init scale for a fan-in/fan-out pair.
float xavier_std(std::size_t fan_in, std::size_t fan_out) {
  return std::sqrt(2.0f / static_cast<float>(fan_in + fan_out));
}

}  // namespace

// ---- Linear ----------------------------------------------------------------

Linear::Linear(common::Rng& rng, std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      weight_(Tensor::randn(rng, in_features, out_features,
                            xavier_std(in_features, out_features))),
      bias_(Tensor(1, out_features, true)) {
  CA5G_CHECK_MSG(in_features > 0 && out_features > 0, "Linear with empty dimension");
}

Tensor Linear::forward(const Tensor& x) const {
  CA5G_METRIC_HISTOGRAM(forward_ns, "nn.linear_forward_ns");
  CA5G_SCOPED_TIMER(forward_ns);
  CA5G_CHECK_MSG(x.cols() == in_, "Linear input width " << x.cols() << " != " << in_);
  return matmul(x, weight_) + bias_;
}

std::vector<Tensor> Linear::parameters() { return {weight_, bias_}; }

// ---- MLP -------------------------------------------------------------------

Mlp::Mlp(common::Rng& rng, const std::vector<std::size_t>& dims) {
  CA5G_CHECK_MSG(dims.size() >= 2, "MLP needs at least input and output dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) layers_.emplace_back(rng, dims[i], dims[i + 1]);
}

Tensor Mlp::forward(const Tensor& x) const {
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].forward(h);
    if (i + 1 < layers_.size()) h = relu(h);
  }
  return h;
}

std::vector<Tensor> Mlp::parameters() {
  std::vector<Tensor> params;
  for (auto& layer : layers_)
    for (auto& p : layer.parameters()) params.push_back(p);
  return params;
}

// ---- LSTM cell --------------------------------------------------------------

LstmCell::LstmCell(common::Rng& rng, std::size_t input_size, std::size_t hidden_size)
    : input_(input_size), hidden_(hidden_size),
      w_ih_(Tensor::randn(rng, input_size, 4 * hidden_size,
                          xavier_std(input_size, hidden_size))),
      w_hh_(Tensor::randn(rng, hidden_size, 4 * hidden_size,
                          xavier_std(hidden_size, hidden_size))),
      bias_(Tensor(1, 4 * hidden_size, true)) {
  CA5G_CHECK_MSG(input_size > 0 && hidden_size > 0, "LstmCell with empty dimension");
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  for (std::size_t c = hidden_; c < 2 * hidden_; ++c) bias_.set(0, c, 1.0f);
}

LstmCell::State LstmCell::zero_state(std::size_t batch) const {
  return {Tensor::zeros(batch, hidden_), Tensor::zeros(batch, hidden_)};
}

LstmCell::State LstmCell::step(const Tensor& x, const State& state) const {
  CA5G_METRIC_HISTOGRAM(step_ns, "nn.lstm_cell_step_ns");
  CA5G_SCOPED_TIMER(step_ns);
  CA5G_CHECK_MSG(x.cols() == input_, "LstmCell input width mismatch");
  const Tensor gates = matmul(x, w_ih_) + (matmul(state.h, w_hh_) + bias_);
  const Tensor i = sigmoid(slice_cols(gates, 0, hidden_));
  const Tensor f = sigmoid(slice_cols(gates, hidden_, hidden_));
  const Tensor g = tanh_op(slice_cols(gates, 2 * hidden_, hidden_));
  const Tensor o = sigmoid(slice_cols(gates, 3 * hidden_, hidden_));
  State next;
  next.c = f * state.c + i * g;
  next.h = o * tanh_op(next.c);
  return next;
}

std::vector<Tensor> LstmCell::parameters() { return {w_ih_, w_hh_, bias_}; }

// ---- Stacked LSTM -----------------------------------------------------------

Lstm::Lstm(common::Rng& rng, std::size_t input_size, std::size_t hidden_size,
           std::size_t num_layers) {
  CA5G_CHECK_MSG(num_layers >= 1, "LSTM needs at least one layer");
  for (std::size_t i = 0; i < num_layers; ++i)
    cells_.emplace_back(rng, i == 0 ? input_size : hidden_size, hidden_size);
}

std::vector<LstmCell::State> Lstm::final_states(std::span<const Tensor> sequence) const {
  CA5G_CHECK_MSG(!sequence.empty(), "LSTM over an empty sequence");
  const std::size_t batch = sequence.front().rows();
  std::vector<LstmCell::State> states;
  states.reserve(cells_.size());
  for (const auto& cell : cells_) states.push_back(cell.zero_state(batch));
  for (const Tensor& x : sequence) (void)step_with_states(x, states);
  return states;
}

Tensor Lstm::last_hidden(std::span<const Tensor> sequence) const {
  return final_states(sequence).back().h;
}

Tensor Lstm::step_with_states(const Tensor& x, std::vector<LstmCell::State>& states) const {
  CA5G_CHECK_MSG(states.size() == cells_.size(), "state/layer count mismatch");
  Tensor input = x;
  for (std::size_t layer = 0; layer < cells_.size(); ++layer) {
    states[layer] = cells_[layer].step(input, states[layer]);
    input = states[layer].h;
  }
  return input;
}

std::vector<Tensor> Lstm::parameters() {
  std::vector<Tensor> params;
  for (auto& cell : cells_)
    for (auto& p : cell.parameters()) params.push_back(p);
  return params;
}

std::size_t Lstm::hidden_size() const noexcept { return cells_.front().hidden_size(); }

// ---- Causal Conv1d ------------------------------------------------------------

CausalConv1d::CausalConv1d(common::Rng& rng, std::size_t in_channels,
                           std::size_t out_channels, std::size_t kernel_size,
                           std::size_t dilation)
    : kernel_(kernel_size), dilation_(dilation), bias_(Tensor(1, out_channels, true)) {
  CA5G_CHECK_MSG(kernel_size >= 1 && dilation >= 1, "bad conv geometry");
  for (std::size_t k = 0; k < kernel_size; ++k)
    taps_.push_back(Tensor::randn(rng, in_channels, out_channels,
                                  xavier_std(in_channels * kernel_size, out_channels)));
}

std::vector<Tensor> CausalConv1d::forward(std::span<const Tensor> sequence) const {
  CA5G_METRIC_HISTOGRAM(forward_ns, "nn.conv1d_forward_ns");
  CA5G_SCOPED_TIMER(forward_ns);
  CA5G_CHECK_MSG(!sequence.empty(), "conv forward on empty sequence");
  std::vector<Tensor> outputs;
  outputs.reserve(sequence.size());
  for (std::size_t t = 0; t < sequence.size(); ++t) {
    Tensor acc;
    for (std::size_t k = 0; k < kernel_; ++k) {
      const std::ptrdiff_t src =
          static_cast<std::ptrdiff_t>(t) - static_cast<std::ptrdiff_t>(k * dilation_);
      if (src < 0) continue;  // causal zero padding
      const Tensor term = matmul(sequence[static_cast<std::size_t>(src)], taps_[k]);
      acc = acc.defined() ? acc + term : term;
    }
    if (!acc.defined())
      acc = Tensor::zeros(sequence[t].rows(), bias_.cols());
    outputs.push_back(acc + bias_);
  }
  return outputs;
}

std::vector<Tensor> CausalConv1d::parameters() {
  std::vector<Tensor> params = taps_;
  params.push_back(bias_);
  return params;
}

}  // namespace ca5g::nn
