// Unit + gradient tests for neural network layers.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/contracts.hpp"
#include "nn/layers.hpp"

namespace {

using namespace ca5g::nn;
using ca5g::common::Rng;

/// Element (r, c) of a tensor's row-major values.
float at(const Tensor& t, std::size_t r, std::size_t c) {
  return t.values().at(r * t.cols() + c);
}

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  Linear layer(rng, 3, 2);
  const auto x = Tensor::zeros(4, 3);
  const auto y = layer.forward(x);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  // Zero input → bias only, and bias starts at zero.
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(at(y, r, c), 0.0f);
  EXPECT_THROW(layer.forward(Tensor::zeros(4, 5)), ca5g::common::CheckError);
}

TEST(Mlp, ForwardAndParams) {
  Rng rng(3);
  Mlp mlp(rng, {4, 8, 2});
  const auto y = mlp.forward(Tensor::zeros(5, 4));
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_EQ(mlp.parameters().size(), 4u);  // two layers × (W, b)
  EXPECT_THROW(Mlp(rng, {4}), ca5g::common::CheckError);
}

TEST(LstmCell, StateShapesAndGateSanity) {
  Rng rng(4);
  LstmCell cell(rng, 3, 5);
  auto state = cell.zero_state(2);
  EXPECT_EQ(state.h.rows(), 2u);
  EXPECT_EQ(state.h.cols(), 5u);
  const auto x = Tensor::constant(2, 3, 0.5f);
  const auto next = cell.step(x, state);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 5; ++c) {
      // h = o · tanh(c) is bounded in (-1, 1).
      EXPECT_GT(at(next.h, r, c), -1.0f);
      EXPECT_LT(at(next.h, r, c), 1.0f);
    }
}

TEST(LstmCell, ZeroInputZeroStateGivesNearZeroOutput) {
  Rng rng(5);
  LstmCell cell(rng, 2, 3);
  const auto next = cell.step(Tensor::zeros(1, 2), cell.zero_state(1));
  // g = tanh(0) = 0 → c = 0 → h = 0 (exactly, given zero bias on g).
  for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(at(next.h, 0, c), 0.0f, 1e-6);
}

TEST(Lstm, SequenceProcessing) {
  Rng rng(6);
  Lstm lstm(rng, 3, 4, 2);
  std::vector<Tensor> seq;
  for (int t = 0; t < 5; ++t) seq.push_back(Tensor::constant(2, 3, 0.1f * t));
  const auto last = lstm.last_hidden(seq);
  EXPECT_EQ(last.rows(), 2u);
  EXPECT_EQ(last.cols(), 4u);
  // The top layer's h after stepping both cells through the sequence.
  std::vector<LstmCell::State> states{lstm.cells()[0].zero_state(2),
                                      lstm.cells()[1].zero_state(2)};
  for (const Tensor& x : seq) {
    states[0] = lstm.cells()[0].step(x, states[0]);
    states[1] = lstm.cells()[1].step(states[0].h, states[1]);
  }
  EXPECT_EQ(last.values(), states[1].h.values());
  EXPECT_THROW((void)lstm.last_hidden(std::span<const Tensor>{}),
               ca5g::common::CheckError);
  EXPECT_EQ(lstm.hidden_size(), 4u);
  EXPECT_EQ(lstm.parameters().size(), 6u);  // 2 layers × 3 tensors
}

TEST(Lstm, StateDependsOnHistory) {
  Rng rng(7);
  Lstm lstm(rng, 2, 4, 1);
  std::vector<Tensor> seq_a{Tensor::constant(1, 2, 1.0f), Tensor::constant(1, 2, 0.0f)};
  std::vector<Tensor> seq_b{Tensor::constant(1, 2, -1.0f), Tensor::constant(1, 2, 0.0f)};
  const auto ha = lstm.last_hidden(seq_a);
  const auto hb = lstm.last_hidden(seq_b);
  double diff = 0.0;
  for (std::size_t c = 0; c < 4; ++c) diff += std::abs(at(ha, 0, c) - at(hb, 0, c));
  EXPECT_GT(diff, 1e-4);  // memory of the first step persists
}

TEST(Lstm, FinalStatesAndStepWithStates) {
  Rng rng(8);
  Lstm lstm(rng, 2, 4, 2);
  std::vector<Tensor> seq{Tensor::constant(3, 2, 0.3f), Tensor::constant(3, 2, -0.2f)};
  auto states = lstm.final_states(seq);
  ASSERT_EQ(states.size(), 2u);
  EXPECT_EQ(states[0].h.rows(), 3u);
  // Continuing from final states must equal processing the longer sequence.
  const auto x3 = Tensor::constant(3, 2, 0.7f);
  const auto continued = lstm.step_with_states(x3, states);
  std::vector<Tensor> full{seq[0], seq[1], x3};
  const auto direct = lstm.last_hidden(full);
  for (std::size_t c = 0; c < 4; ++c)
    EXPECT_NEAR(at(continued, 0, c), at(direct, 0, c), 1e-6);
}

TEST(CausalConv1d, CausalityHolds) {
  Rng rng(10);
  CausalConv1d conv(rng, 2, 3, 3, 1);
  std::vector<Tensor> seq;
  for (int t = 0; t < 6; ++t) seq.push_back(Tensor::constant(1, 2, 0.0f));
  const auto base = conv.forward(seq);
  // Perturb the last step: earlier outputs must not change.
  seq.back() = Tensor::constant(1, 2, 5.0f);
  const auto perturbed = conv.forward(seq);
  for (std::size_t t = 0; t + 1 < seq.size(); ++t)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_FLOAT_EQ(at(base[t], 0, c), at(perturbed[t], 0, c));
  // The final output must change.
  double diff = 0.0;
  for (std::size_t c = 0; c < 3; ++c)
    diff += std::abs(at(base[5], 0, c) - at(perturbed[5], 0, c));
  EXPECT_GT(diff, 1e-4);
}

TEST(CausalConv1d, DilationExtendsReach) {
  Rng rng(11);
  CausalConv1d conv(rng, 1, 1, 2, 3);  // taps at t and t−3
  std::vector<Tensor> seq;
  for (int t = 0; t < 8; ++t) seq.push_back(Tensor::constant(1, 1, 0.0f));
  const auto base = conv.forward(seq);
  seq[2] = Tensor::constant(1, 1, 1.0f);
  const auto perturbed = conv.forward(seq);
  // Influence lands at exactly t=2 and t=5.
  for (std::size_t t = 0; t < 8; ++t) {
    const double delta = std::abs(at(base[t], 0, 0) - at(perturbed[t], 0, 0));
    if (t == 2 || t == 5)
      EXPECT_GT(delta, 1e-5) << "t=" << t;
    else
      EXPECT_NEAR(delta, 0.0, 1e-7) << "t=" << t;
  }
}

TEST(Layers, GradientsFlowThroughLstm) {
  // End-to-end autograd sanity: loss gradient reaches every parameter.
  Rng rng(12);
  Lstm lstm(rng, 2, 3, 1);
  std::vector<Tensor> seq{Tensor::constant(2, 2, 0.4f), Tensor::constant(2, 2, -0.1f)};
  auto loss = mse_loss(lstm.last_hidden(seq), Tensor::constant(2, 3, 0.5f));
  loss.backward();
  for (auto& p : lstm.parameters()) {
    double norm = 0.0;
    for (float g : p.grad()) norm += std::abs(g);
    EXPECT_GT(norm, 0.0);
  }
}

}  // namespace
