#include "predictors/naive.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/contracts.hpp"

namespace ca5g::predictors {

std::vector<double> HarmonicMeanPredictor::predict(const traces::Window& w) const {
  const std::size_t n = w.history();
  CA5G_CHECK_MSG(n > 0, "empty history");
  double denom = 0.0;
  for (std::size_t t = 0; t < n; ++t) denom += 1.0 / std::max<double>(w.agg(t), 1e-6);
  const double hm = static_cast<double>(n) / denom;
  return std::vector<double>(horizon_, hm);
}

std::vector<double> ridge_solve(const std::vector<std::vector<double>>& a,
                                const std::vector<double>& y, double lambda) {
  CA5G_CHECK_MSG(!a.empty() && a.size() == y.size(), "ridge_solve shape mismatch");
  const std::size_t n = a.size();
  const std::size_t d = a.front().size();

  // Normal equations: M = AᵀA + λI, b = Aᵀy.
  std::vector<std::vector<double>> m(d, std::vector<double>(d, 0.0));
  std::vector<double> b(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    CA5G_CHECK_MSG(a[i].size() == d, "ragged design matrix");
    for (std::size_t r = 0; r < d; ++r) {
      b[r] += a[i][r] * y[i];
      for (std::size_t c = 0; c < d; ++c) m[r][c] += a[i][r] * a[i][c];
    }
  }
  for (std::size_t r = 0; r < d; ++r) m[r][r] += lambda;

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < d; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < d; ++r)
      if (std::abs(m[r][col]) > std::abs(m[pivot][col])) pivot = r;
    std::swap(m[col], m[pivot]);
    std::swap(b[col], b[pivot]);
    CA5G_CHECK_MSG(std::abs(m[col][col]) > 1e-12, "singular ridge system");
    for (std::size_t r = col + 1; r < d; ++r) {
      const double factor = m[r][col] / m[col][col];
      for (std::size_t c = col; c < d; ++c) m[r][c] -= factor * m[col][c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(d, 0.0);
  for (std::size_t col = d; col-- > 0;) {
    double acc = b[col];
    for (std::size_t c = col + 1; c < d; ++c) acc -= m[col][c] * x[c];
    x[col] = acc / m[col][col];
  }
  return x;
}

std::vector<double> ProphetLitePredictor::predict(const traces::Window& w) const {
  const std::size_t t_len = w.history();
  CA5G_CHECK_MSG(t_len >= 3, "history too short for Prophet-lite");
  const double period = static_cast<double>(t_len);

  auto features = [&](double t) {
    std::vector<double> row{1.0, t / period};
    for (std::size_t k = 1; k <= config_.fourier_order; ++k) {
      const double angle = 2.0 * std::numbers::pi * static_cast<double>(k) * t / period;
      row.push_back(std::sin(angle));
      row.push_back(std::cos(angle));
    }
    return row;
  };

  std::vector<std::vector<double>> design;
  std::vector<double> history;
  design.reserve(t_len);
  history.reserve(t_len);
  for (std::size_t t = 0; t < t_len; ++t) {
    design.push_back(features(static_cast<double>(t)));
    history.push_back(w.agg(t));
  }
  const auto coef = ridge_solve(design, history, config_.ridge_lambda);

  std::vector<double> out;
  out.reserve(horizon_);
  for (std::size_t h = 0; h < horizon_; ++h) {
    const auto row = features(static_cast<double>(t_len + h));
    double pred = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) pred += row[c] * coef[c];
    // Throughput cannot be negative; allow mild extrapolation above 1.
    out.push_back(std::clamp(pred, 0.0, 1.5));
  }
  return out;
}

}  // namespace ca5g::predictors
