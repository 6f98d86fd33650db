// Tests for the autograd engine, including numerical gradient checks of
// every differentiable op (central finite differences).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>

#include "common/contracts.hpp"
#include "nn/tensor.hpp"

namespace {

using namespace ca5g::nn;
using ca5g::common::Rng;

/// Element (r, c) of a tensor's row-major values.
float at(const Tensor& t, std::size_t r, std::size_t c) {
  return t.values().at(r * t.cols() + c);
}

/// Numerically verify d(f)/d(leaf) against autograd for every element of
/// every leaf tensor. `f` must build a fresh graph each call.
void grad_check(std::vector<Tensor> leaves, const std::function<Tensor()>& f,
                double tolerance = 2e-2) {
  for (auto& leaf : leaves) leaf.zero_grad();
  Tensor out = f();
  out.backward();
  std::vector<std::vector<float>> analytic;
  for (auto& leaf : leaves) analytic.push_back(leaf.grad());

  const float eps = 1e-2f;  // float precision: keep the step large-ish
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    for (std::size_t i = 0; i < leaves[l].values().size(); ++i) {
      const float saved = leaves[l].values()[i];
      leaves[l].values()[i] = saved + eps;
      const double plus = at(f(), 0, 0);
      leaves[l].values()[i] = saved - eps;
      const double minus = at(f(), 0, 0);
      leaves[l].values()[i] = saved;
      const double numeric = (plus - minus) / (2.0 * eps);
      EXPECT_NEAR(analytic[l][i], numeric,
                  tolerance * std::max(1.0, std::abs(numeric)))
          << "leaf " << l << " element " << i;
    }
  }
}

Tensor leaf(Rng& rng, std::size_t r, std::size_t c) {
  return Tensor::randn(rng, r, c, 0.5f, true);
}

TEST(Tensor, ConstructionAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  t.set(1, 2, 5.0f);
  EXPECT_FLOAT_EQ(at(t, 1, 2), 5.0f);
  EXPECT_THROW(t.set(2, 0, 1.0f), ca5g::common::CheckError);
  EXPECT_FALSE(Tensor{}.defined());
}

TEST(Tensor, FactoryFunctions) {
  const auto c = Tensor::constant(2, 2, 3.5f);
  EXPECT_FLOAT_EQ(at(c, 1, 1), 3.5f);
  const auto f = Tensor::from({1, 2, 3, 4}, 2, 2);
  EXPECT_FLOAT_EQ(at(f, 1, 0), 3.0f);
  EXPECT_THROW(Tensor::from({1, 2, 3}, 2, 2), ca5g::common::CheckError);
  Rng rng(1);
  const auto r = Tensor::randn(rng, 4, 4, 1.0f);
  EXPECT_TRUE(r.requires_grad());
}

TEST(Tensor, MatmulForward) {
  const auto a = Tensor::from({1, 2, 3, 4}, 2, 2);
  const auto b = Tensor::from({5, 6, 7, 8}, 2, 2);
  const auto c = matmul(a, b);
  EXPECT_FLOAT_EQ(at(c, 0, 0), 19.0f);
  EXPECT_FLOAT_EQ(at(c, 0, 1), 22.0f);
  EXPECT_FLOAT_EQ(at(c, 1, 0), 43.0f);
  EXPECT_FLOAT_EQ(at(c, 1, 1), 50.0f);
  EXPECT_THROW(matmul(a, Tensor::zeros(3, 2)), ca5g::common::CheckError);
}

TEST(Tensor, AddBroadcastForward) {
  const auto a = Tensor::from({1, 2, 3, 4}, 2, 2);
  const auto row = Tensor::from({10, 20}, 1, 2);
  const auto c = a + row;
  EXPECT_FLOAT_EQ(at(c, 0, 0), 11.0f);
  EXPECT_FLOAT_EQ(at(c, 1, 1), 24.0f);
}

TEST(Tensor, SliceAndConcatForward) {
  const auto a = Tensor::from({1, 2, 3, 4, 5, 6}, 2, 3);
  const auto s = slice_cols(a, 1, 2);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_FLOAT_EQ(at(s, 1, 0), 5.0f);
  const std::vector<Tensor> parts{s, s};
  const auto c = concat_cols(parts);
  EXPECT_EQ(c.cols(), 4u);
  EXPECT_FLOAT_EQ(at(c, 0, 2), 2.0f);
  EXPECT_THROW(slice_cols(a, 2, 2), ca5g::common::CheckError);
}

TEST(Tensor, SumAndMean) {
  const auto a = Tensor::from({1, 2, 3, 4}, 2, 2);
  EXPECT_FLOAT_EQ(at(sum_all(a), 0, 0), 10.0f);
  EXPECT_FLOAT_EQ(at(mean_all(a), 0, 0), 2.5f);
}

TEST(Tensor, DetachBreaksGraph) {
  Rng rng(2);
  auto a = leaf(rng, 2, 2);
  const auto d = a.detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_FLOAT_EQ(at(d, 0, 0), at(a, 0, 0));
}

TEST(Tensor, BackwardRequiresScalar) {
  Tensor t(2, 2, true);
  EXPECT_THROW(t.backward(), ca5g::common::CheckError);
}

// ---- Gradient checks --------------------------------------------------------

TEST(GradCheck, Matmul) {
  Rng rng(10);
  auto a = leaf(rng, 3, 4);
  auto b = leaf(rng, 4, 2);
  grad_check({a, b}, [&] { return sum_all(matmul(a, b)); });
}

TEST(GradCheck, AddSameShape) {
  Rng rng(11);
  auto a = leaf(rng, 2, 3);
  auto b = leaf(rng, 2, 3);
  grad_check({a, b}, [&] { return sum_all((a + b) * (a + b)); });
}

TEST(GradCheck, AddRowBroadcast) {
  Rng rng(12);
  auto a = leaf(rng, 3, 2);
  auto row = leaf(rng, 1, 2);
  grad_check({a, row}, [&] { return sum_all((a + row) * (a + row)); });
}

TEST(GradCheck, Subtract) {
  Rng rng(13);
  auto a = leaf(rng, 2, 2);
  auto b = leaf(rng, 2, 2);
  grad_check({a, b}, [&] { return sum_all((a - b) * (a - b)); });
}

TEST(GradCheck, HadamardAndBroadcastMul) {
  Rng rng(14);
  auto a = leaf(rng, 2, 3);
  auto b = leaf(rng, 2, 3);
  grad_check({a, b}, [&] { return sum_all(a * b); });
  auto row = leaf(rng, 1, 3);
  grad_check({a, row}, [&] { return sum_all(a * row); });
}

TEST(GradCheck, Scale) {
  Rng rng(15);
  auto a = leaf(rng, 2, 2);
  grad_check({a}, [&] { return sum_all(scale(a, -2.5f)); });
}

TEST(GradCheck, Tanh) {
  Rng rng(16);
  auto a = leaf(rng, 2, 3);
  grad_check({a}, [&] { return sum_all(tanh_op(a)); });
}

TEST(GradCheck, Sigmoid) {
  Rng rng(17);
  auto a = leaf(rng, 2, 3);
  grad_check({a}, [&] { return sum_all(sigmoid(a)); });
}

TEST(GradCheck, Relu) {
  Rng rng(18);
  auto a = leaf(rng, 3, 3);
  // Keep values away from the kink for a clean numerical comparison.
  for (auto& v : a.values())
    if (std::abs(v) < 0.1f) v = 0.3f;
  grad_check({a}, [&] { return sum_all(relu(a)); });
}

TEST(GradCheck, SliceConcat) {
  Rng rng(19);
  auto a = leaf(rng, 2, 4);
  grad_check({a}, [&] {
    const auto left = slice_cols(a, 0, 2);
    const auto right = slice_cols(a, 2, 2);
    const std::vector<Tensor> parts{right, left};
    return sum_all(concat_cols(parts) * concat_cols(parts));
  });
}

TEST(GradCheck, MseLoss) {
  Rng rng(20);
  auto pred = leaf(rng, 3, 2);
  const auto target = Tensor::constant(3, 2, 0.3f);
  grad_check({pred}, [&] { return mse_loss(pred, target); });
}

TEST(GradCheck, CompositeExpression) {
  // A small MLP-like composite: tests accumulation through shared nodes.
  Rng rng(21);
  auto w1 = leaf(rng, 3, 4);
  auto w2 = leaf(rng, 4, 1);
  auto x = leaf(rng, 2, 3);
  grad_check({w1, w2, x}, [&] {
    const auto h = tanh_op(matmul(x, w1));
    return sum_all(matmul(h, w2));
  });
}

TEST(GradCheck, ReusedTensorAccumulates) {
  Rng rng(22);
  auto a = leaf(rng, 2, 2);
  // a appears twice: gradient must accumulate both paths.
  grad_check({a}, [&] { return sum_all(a * a + a); });
}

TEST(Tensor, MulColBroadcastForward) {
  const auto a = Tensor::from({1, 2, 3, 4}, 2, 2);
  const auto col = Tensor::from({10, -1}, 2, 1);
  const auto m = mul_col_broadcast(a, col);
  EXPECT_FLOAT_EQ(at(m, 0, 1), 20.0f);
  EXPECT_FLOAT_EQ(at(m, 1, 0), -3.0f);
  EXPECT_THROW(mul_col_broadcast(a, Tensor::zeros(3, 1)), ca5g::common::CheckError);
}

TEST(GradCheck, MulColBroadcast) {
  Rng rng(32);
  auto a = leaf(rng, 3, 2);
  auto col = leaf(rng, 3, 1);
  grad_check({a, col}, [&] { return sum_all(mul_col_broadcast(a, col)); });
}

TEST(Tensor, GradientAccumulatesAcrossBackwards) {
  Rng rng(23);
  auto a = leaf(rng, 1, 1);
  auto loss1 = sum_all(a);
  loss1.backward();
  auto loss2 = sum_all(a);
  loss2.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);  // 1 + 1
  a.zero_grad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

}  // namespace
