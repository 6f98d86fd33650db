// Descriptive statistics used throughout measurement analysis and
// evaluation: mean/std, percentiles, Pearson correlation, histograms,
// and a streaming accumulator.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ca5g::common {

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Sample standard deviation (n-1 denominator); 0 if fewer than 2 values.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

[[nodiscard]] double min_value(std::span<const double> xs) noexcept;
[[nodiscard]] double max_value(std::span<const double> xs) noexcept;

/// Linear-interpolated percentile, p in [0, 100]. Copies and sorts input.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Pearson correlation coefficient; 0 if either side is constant.
[[nodiscard]] double pearson(std::span<const double> xs, std::span<const double> ys);

/// Root mean squared error between predictions and targets.
[[nodiscard]] double rmse(std::span<const double> pred, std::span<const double> truth);

/// Mean absolute error.
[[nodiscard]] double mae(std::span<const double> pred, std::span<const double> truth);

/// Equal-width histogram over [lo, hi] with `bins` buckets; values outside
/// the range are clamped into the edge buckets.
[[nodiscard]] std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                                 double hi, std::size_t bins);

/// Count of local maxima ("modes") in a smoothed histogram — used to
/// quantify the multimodality that CA induces in throughput distributions
/// (paper Fig. 2). A bucket is a mode if it exceeds both neighbours and
/// holds at least `min_mass_fraction` of the samples.
[[nodiscard]] std::size_t count_modes(std::span<const double> xs, std::size_t bins,
                                      double min_mass_fraction = 0.02);

/// Streaming mean/max accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ca5g::common
