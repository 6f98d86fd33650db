#include "nn/attention.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace ca5g::nn {

SelfAttentionEncoder::SelfAttentionEncoder(common::Rng& rng, std::size_t input_size,
                                           std::size_t model_size, std::size_t max_len)
    : model_(model_size),
      scale_(1.0f / std::sqrt(static_cast<float>(model_size))),
      input_proj_(rng, input_size, model_size),
      wq_(rng, model_size, model_size),
      wk_(rng, model_size, model_size),
      wv_(rng, model_size, model_size),
      wo_(rng, model_size, model_size),
      ffn1_(rng, model_size, 2 * model_size),
      ffn2_(rng, 2 * model_size, model_size) {
  CA5G_CHECK_MSG(model_size > 0 && max_len > 0, "bad attention geometry");
  // Fixed sinusoidal positional encodings (Vaswani et al.).
  positional_.assign(max_len, std::vector<float>(model_size, 0.0f));
  for (std::size_t pos = 0; pos < max_len; ++pos) {
    for (std::size_t d = 0; d < model_size; ++d) {
      const double angle =
          static_cast<double>(pos) /
          std::pow(10000.0, 2.0 * static_cast<double>(d / 2) / static_cast<double>(model_size));
      positional_[pos][d] =
          static_cast<float>(d % 2 == 0 ? std::sin(angle) : std::cos(angle));
    }
  }
}

std::vector<Tensor> SelfAttentionEncoder::forward(std::span<const Tensor> sequence) const {
  CA5G_CHECK_MSG(!sequence.empty(), "attention over empty sequence");
  CA5G_CHECK_MSG(sequence.size() <= positional_.size(),
                 "sequence longer than positional table");
  const std::size_t t_len = sequence.size();

  // Project inputs and add positional encodings.
  std::vector<Tensor> h;
  h.reserve(t_len);
  for (std::size_t t = 0; t < t_len; ++t) {
    Tensor pos(1, model_);
    for (std::size_t d = 0; d < model_; ++d) pos.set(0, d, positional_[t][d]);
    h.push_back(input_proj_.forward(sequence[t]) + pos);  // row broadcast
  }

  // Queries / keys / values per step.
  std::vector<Tensor> q, k, v;
  for (std::size_t t = 0; t < t_len; ++t) {
    q.push_back(wq_.forward(h[t]));
    k.push_back(wk_.forward(h[t]));
    v.push_back(wv_.forward(h[t]));
  }

  // Causal attention: step t attends to steps 0..t.
  std::vector<Tensor> outputs;
  outputs.reserve(t_len);
  for (std::size_t t = 0; t < t_len; ++t) {
    std::vector<Tensor> score_cols;
    score_cols.reserve(t + 1);
    for (std::size_t s = 0; s <= t; ++s)
      score_cols.push_back(scale(rowwise_dot(q[t], k[s]), scale_));
    const Tensor weights = softmax_rows(concat_cols(score_cols));  // batch × (t+1)
    Tensor context;
    for (std::size_t s = 0; s <= t; ++s) {
      const Tensor term = mul_col_broadcast(v[s], slice_cols(weights, s, 1));
      context = context.defined() ? context + term : term;
    }
    // Residual + position-wise FFN (pre-norm omitted for simplicity).
    const Tensor attended = h[t] + wo_.forward(context);
    outputs.push_back(attended + ffn2_.forward(relu(ffn1_.forward(attended))));
  }
  return outputs;
}

Tensor SelfAttentionEncoder::last_hidden(std::span<const Tensor> sequence) const {
  return forward(sequence).back();
}

std::vector<Tensor> SelfAttentionEncoder::parameters() {
  std::vector<Tensor> params;
  for (Linear* layer : {&input_proj_, &wq_, &wk_, &wv_, &wo_, &ffn1_, &ffn2_})
    for (auto& p : layer->parameters()) params.push_back(p);
  return params;
}

}  // namespace ca5g::nn
