// Unit tests for Adam.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"

namespace {

using namespace ca5g::nn;
using ca5g::common::Rng;

/// Element (r, c) of a tensor's row-major values.
float at(const Tensor& t, std::size_t r, std::size_t c) {
  return t.values().at(r * t.cols() + c);
}

TEST(Adam, MinimizesQuadratic) {
  // Minimize ||x - 3||² over a 2×2 parameter.
  Tensor x(2, 2, true);
  const auto target = Tensor::constant(2, 2, 3.0f);
  Adam::Config config;
  config.lr = 0.1f;
  Adam opt({x}, config);
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    auto loss = mse_loss(x, target);
    loss.backward();
    opt.step();
  }
  for (float v : x.values()) EXPECT_NEAR(v, 3.0f, 0.05f);
}

TEST(Adam, TrainsTinyRegressionNet) {
  // Fit y = 2a − b with a linear layer.
  Rng rng(1);
  Linear layer(rng, 2, 1);
  Adam::Config config;
  config.lr = 0.05f;
  Adam opt(layer.parameters(), config);
  Rng data_rng(2);
  for (int step = 0; step < 500; ++step) {
    Tensor x(8, 2);
    Tensor y(8, 1);
    for (std::size_t r = 0; r < 8; ++r) {
      const float a = static_cast<float>(data_rng.uniform(-1, 1));
      const float b = static_cast<float>(data_rng.uniform(-1, 1));
      x.set(r, 0, a);
      x.set(r, 1, b);
      y.set(r, 0, 2 * a - b);
    }
    opt.zero_grad();
    auto loss = mse_loss(layer.forward(x), y);
    loss.backward();
    opt.step();
  }
  Tensor probe(1, 2);
  probe.set(0, 0, 0.5f);
  probe.set(0, 1, -0.25f);
  EXPECT_NEAR(at(layer.forward(probe), 0, 0), 1.25f, 0.05f);
}

TEST(Adam, GradientClippingBoundsUpdates) {
  Tensor x(1, 1, true);
  Adam::Config config;
  config.lr = 1.0f;
  config.clip_norm = 0.001f;
  Adam opt({x}, config);
  opt.zero_grad();
  auto loss = scale(sum_all(x * x), 1000.0f);  // enormous gradient
  loss.backward();
  const float before = x.values()[0];
  opt.step();
  // Adam normalizes by sqrt(v); with clipping the step stays ≈ lr.
  EXPECT_LT(std::abs(x.values()[0] - before), 1.5f);
}

TEST(Adam, RequiresParameters) {
  EXPECT_THROW(Adam({}, Adam::Config{}), ca5g::common::CheckError);
  Tensor no_grad(1, 1, false);
  EXPECT_THROW(Adam({no_grad}, Adam::Config{}), ca5g::common::CheckError);
}

}  // namespace
