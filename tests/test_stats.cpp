// Unit + property tests for descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace {

using namespace ca5g::common;

TEST(Stats, MeanBasics) {
  std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, StddevKnownValues) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(xs), 2.138, 0.001);  // sample std (n-1)
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
}

TEST(Stats, MinMax) {
  std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW((void)percentile(std::vector<double>{}, 50), CheckError);
  std::vector<double> xs{1.0};
  EXPECT_THROW((void)percentile(xs, -1), CheckError);
  EXPECT_THROW((void)percentile(xs, 101), CheckError);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> xs{1, 2, 3, 4};
  std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  std::vector<double> xs{1, 2, 3};
  std::vector<double> c{5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(xs, c), 0.0);
}

TEST(Stats, PearsonSizeMismatchThrows) {
  std::vector<double> a{1, 2};
  std::vector<double> b{1, 2, 3};
  EXPECT_THROW((void)pearson(a, b), CheckError);
}

TEST(Stats, RmseAndMae) {
  std::vector<double> pred{1.0, 2.0, 3.0};
  std::vector<double> truth{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(rmse(pred, truth), 0.0);
  std::vector<double> off{2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(rmse(off, truth), 1.0);
  EXPECT_DOUBLE_EQ(mae(off, truth), 1.0);
}

TEST(Stats, HistogramCountsAndClamping) {
  std::vector<double> xs{0.5, 1.5, 2.5, -10.0, 99.0};
  const auto h = histogram(xs, 0.0, 3.0, 3);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0], 2u);  // 0.5 and clamped -10
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[2], 2u);  // 2.5 and clamped 99
}

TEST(Stats, CountModesUnimodal) {
  Rng rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal(0.0, 1.0));
  EXPECT_EQ(count_modes(xs, 30), 1u);
}

TEST(Stats, CountModesBimodal) {
  // Two well-separated normal clusters — the CA signature in Fig. 2.
  Rng rng(2);
  std::vector<double> xs;
  for (int i = 0; i < 4000; ++i) xs.push_back(rng.normal(0.0, 1.0));
  for (int i = 0; i < 4000; ++i) xs.push_back(rng.normal(12.0, 1.0));
  EXPECT_EQ(count_modes(xs, 40), 2u);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(3);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 9.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_DOUBLE_EQ(rs.max(), max_value(xs));
}

// Property sweep: percentile is monotone in p and bounded by min/max.
class PercentileProperty : public ::testing::TestWithParam<int> {};

TEST_P(PercentileProperty, MonotoneAndBounded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> xs;
  const int n = 50 + GetParam() * 13;
  for (int i = 0; i < n; ++i) xs.push_back(rng.normal(5.0, 20.0));
  double prev = percentile(xs, 0.0);
  EXPECT_DOUBLE_EQ(prev, min_value(xs));
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = percentile(xs, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(prev, max_value(xs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty, ::testing::Range(1, 9));

// Property sweep: RMSE ≥ MAE always (Cauchy–Schwarz).
class ErrorMetricProperty : public ::testing::TestWithParam<int> {};

TEST_P(ErrorMetricProperty, RmseAtLeastMae) {
  Rng rng(static_cast<std::uint64_t>(GetParam() + 100));
  std::vector<double> pred, truth;
  for (int i = 0; i < 200; ++i) {
    pred.push_back(rng.normal(0.0, 3.0));
    truth.push_back(rng.normal(0.0, 3.0));
  }
  EXPECT_GE(rmse(pred, truth) + 1e-12, mae(pred, truth));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErrorMetricProperty, ::testing::Range(1, 9));

}  // namespace
