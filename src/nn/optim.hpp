// Optimization: Adam (Kingma & Ba, as cited by the paper) with optional
// global-norm gradient clipping.
#pragma once

#include <vector>

#include "nn/tensor.hpp"

namespace ca5g::nn {

/// Adam optimizer over a fixed set of parameter tensors.
class Adam {
 public:
  struct Config {
    float lr = 0.01f;       ///< paper: learning rate 0.01
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float clip_norm = 5.0f; ///< global-norm clip; <=0 disables
  };

  Adam(std::vector<Tensor> parameters, Config config);

  /// Zero all parameter gradients.
  void zero_grad();

  /// Apply one update from the accumulated gradients.
  void step();

 private:
  std::vector<Tensor> params_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  Config config_;
  std::int64_t t_ = 0;
};

}  // namespace ca5g::nn
