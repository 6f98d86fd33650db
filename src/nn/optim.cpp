#include "nn/optim.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace ca5g::nn {

Adam::Adam(std::vector<Tensor> parameters) : Adam(std::move(parameters), Config{}) {}

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

void MinMaxScaler::fit(const std::vector<std::vector<double>>& rows) {
  CA5G_CHECK_MSG(!rows.empty(), "MinMaxScaler::fit with no rows");
  const std::size_t cols = rows.front().size();
  mins_.assign(cols, rows.front().front());
  maxs_.assign(cols, rows.front().front());
  for (std::size_t c = 0; c < cols; ++c) {
    mins_[c] = maxs_[c] = rows.front()[c];
  }
  for (const auto& row : rows) {
    CA5G_CHECK_MSG(row.size() == cols, "MinMaxScaler row width mismatch");
    for (std::size_t c = 0; c < cols; ++c) {
      mins_[c] = std::min(mins_[c], row[c]);
      maxs_[c] = std::max(maxs_[c], row[c]);
    }
  }
}

void MinMaxScaler::fit_series(std::span<const double> series) {
  CA5G_CHECK_MSG(!series.empty(), "MinMaxScaler::fit_series with no data");
  mins_.assign(1, series.front());
  maxs_.assign(1, series.front());
  for (double x : series) {
    mins_[0] = std::min(mins_[0], x);
    maxs_[0] = std::max(maxs_[0], x);
  }
}

double MinMaxScaler::transform(double x, std::size_t column) const {
  CA5G_CHECK_MSG(column < mins_.size(), "scaler column out of range");
  const double range = maxs_[column] - mins_[column];
  if (range <= 0.0) return 0.0;
  return (x - mins_[column]) / range;
}

double MinMaxScaler::inverse(double y, std::size_t column) const {
  CA5G_CHECK_MSG(column < mins_.size(), "scaler column out of range");
  return mins_[column] + y * (maxs_[column] - mins_[column]);
}

std::vector<double> MinMaxScaler::transform_row(const std::vector<double>& row) const {
  CA5G_CHECK_MSG(row.size() == mins_.size(), "scaler row width mismatch");
  std::vector<double> out(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) out[c] = transform(row[c], c);
  return out;
}

}  // namespace ca5g::nn
