#include "nn/optim.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace ca5g::nn {

Adam::Adam(std::vector<Tensor> parameters, Config config)
    : params_(std::move(parameters)), config_(config) {
  CA5G_CHECK_MSG(!params_.empty(), "Adam with no parameters");
  for (const auto& p : params_) {
    CA5G_CHECK_MSG(p.requires_grad(), "Adam parameter does not require grad");
    m_.emplace_back(p.size(), 0.0f);
    v_.emplace_back(p.size(), 0.0f);
  }
}

void Adam::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

void Adam::step() {
  CA5G_METRIC_HISTOGRAM(step_ns, "nn.optimizer_step_ns");
  CA5G_SCOPED_TIMER(step_ns);
  ++t_;

  if (config_.clip_norm > 0.0f) {
    double sq = 0.0;
    for (auto& p : params_)
      for (float g : p.grad()) sq += static_cast<double>(g) * g;
    const double norm = std::sqrt(sq);
    if (norm > config_.clip_norm) {
      const auto factor = static_cast<float>(config_.clip_norm / norm);
      for (auto& p : params_)
        for (float& g : p.grad()) g *= factor;
    }
  }

  const float bc1 = 1.0f - std::pow(config_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(config_.beta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& values = params_[i].values();
    const auto& grad = params_[i].grad();
    auto& m = m_[i];
    auto& v = v_[i];
    for (std::size_t j = 0; j < values.size(); ++j) {
      m[j] = config_.beta1 * m[j] + (1.0f - config_.beta1) * grad[j];
      v[j] = config_.beta2 * v[j] + (1.0f - config_.beta2) * grad[j] * grad[j];
      const float m_hat = m[j] / bc1;
      const float v_hat = v[j] / bc2;
      values[j] -= config_.lr * m_hat / (std::sqrt(v_hat) + config_.eps);
    }
  }
}

}  // namespace ca5g::nn
