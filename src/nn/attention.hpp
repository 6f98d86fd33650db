// Single-head self-attention sequence encoder — the "transformer"
// building block the paper's future-work section proposes swapping into
// Prism5G in place of the LSTM. Operates on the same sequence
// representation as Lstm (a vector of T (batch × features) tensors) so
// the two are drop-in interchangeable inside the Prism5G encoder.
#pragma once

#include <memory>

#include "nn/layers.hpp"

namespace ca5g::nn {

/// One pre-activation self-attention block + position-wise FFN.
/// Positional information is injected via fixed sinusoidal encodings
/// added to the input projection.
class SelfAttentionEncoder final : public Module {
 public:
  SelfAttentionEncoder(common::Rng& rng, std::size_t input_size, std::size_t model_size,
                       std::size_t max_len = 64);

  /// Encode a sequence; returns per-step representations (batch × model).
  [[nodiscard]] std::vector<Tensor> forward(std::span<const Tensor> sequence) const;

  /// Final-step representation (attention over the whole sequence).
  [[nodiscard]] Tensor last_hidden(std::span<const Tensor> sequence) const;

  [[nodiscard]] std::vector<Tensor> parameters() override;

 private:
  std::size_t model_;
  float scale_;
  Linear input_proj_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
  Linear ffn1_;
  Linear ffn2_;
  std::vector<std::vector<float>> positional_;  ///< [max_len][model]
};

}  // namespace ca5g::nn
