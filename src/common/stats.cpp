#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace ca5g::common {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double min_value(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::span<const double> xs, double p) {
  CA5G_CHECK_MSG(!xs.empty(), "percentile of empty data");
  CA5G_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile p out of range: " << p);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  CA5G_CHECK_MSG(xs.size() == ys.size(), "pearson size mismatch");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double rmse(std::span<const double> pred, std::span<const double> truth) {
  CA5G_CHECK_MSG(pred.size() == truth.size(), "rmse size mismatch");
  CA5G_CHECK_MSG(!pred.empty(), "rmse of empty data");
  double ss = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - truth[i];
    ss += d * d;
  }
  return std::sqrt(ss / static_cast<double>(pred.size()));
}

double mae(std::span<const double> pred, std::span<const double> truth) {
  CA5G_CHECK_MSG(pred.size() == truth.size(), "mae size mismatch");
  CA5G_CHECK_MSG(!pred.empty(), "mae of empty data");
  double s = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) s += std::abs(pred[i] - truth[i]);
  return s / static_cast<double>(pred.size());
}

std::vector<std::size_t> histogram(std::span<const double> xs, double lo, double hi,
                                   std::size_t bins) {
  CA5G_CHECK_MSG(bins > 0, "histogram needs at least one bin");
  CA5G_CHECK_MSG(hi > lo, "histogram range must be non-empty");
  std::vector<std::size_t> counts(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : xs) {
    auto idx = static_cast<std::ptrdiff_t>((x - lo) / width);
    idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(bins) - 1);
    ++counts[static_cast<std::size_t>(idx)];
  }
  return counts;
}

std::size_t count_modes(std::span<const double> xs, std::size_t bins,
                        double min_mass_fraction) {
  if (xs.size() < 3) return xs.empty() ? 0 : 1;
  const double lo = min_value(xs);
  const double hi = max_value(xs);
  if (hi <= lo) return 1;
  auto counts = histogram(xs, lo, hi, bins);
  // 3-tap smoothing to suppress sampling noise before peak detection.
  std::vector<double> smooth(counts.size(), 0.0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    double acc = static_cast<double>(counts[i]) * 2.0;
    double weight = 2.0;
    if (i > 0) {
      acc += static_cast<double>(counts[i - 1]);
      weight += 1.0;
    }
    if (i + 1 < counts.size()) {
      acc += static_cast<double>(counts[i + 1]);
      weight += 1.0;
    }
    smooth[i] = acc / weight;
  }
  const double threshold = min_mass_fraction * static_cast<double>(xs.size());
  std::size_t modes = 0;
  for (std::size_t i = 0; i < smooth.size(); ++i) {
    const double left = i > 0 ? smooth[i - 1] : -1.0;
    const double right = i + 1 < smooth.size() ? smooth[i + 1] : -1.0;
    if (smooth[i] > left && smooth[i] >= right && smooth[i] >= threshold) ++modes;
  }
  return modes;
}

void RunningStats::add(double x) noexcept {
  max_ = n_ == 0 ? x : std::max(max_, x);
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

}  // namespace ca5g::common
