// Tests for the self-attention (transformer) encoder — the paper's
// future-work building block for Prism5G.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "nn/attention.hpp"
#include "nn/optim.hpp"

namespace {

using namespace ca5g::nn;
using ca5g::common::Rng;

std::vector<Tensor> make_sequence(std::size_t t_len, std::size_t batch, std::size_t dim,
                                  float base = 0.1f) {
  std::vector<Tensor> seq;
  for (std::size_t t = 0; t < t_len; ++t)
    seq.push_back(Tensor::constant(batch, dim, base * static_cast<float>(t + 1)));
  return seq;
}

TEST(Attention, OutputShapes) {
  Rng rng(1);
  SelfAttentionEncoder enc(rng, 5, 8);
  const auto seq = make_sequence(6, 3, 5);
  const auto out = enc.forward(seq);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out.back().rows(), 3u);
  EXPECT_EQ(out.back().cols(), 8u);
}

TEST(Attention, CausalityHolds) {
  // Perturbing the last step must not change earlier outputs.
  Rng rng(2);
  SelfAttentionEncoder enc(rng, 4, 8);
  auto seq = make_sequence(5, 1, 4);
  const auto base = enc.forward(seq);
  seq.back() = Tensor::constant(1, 4, 9.0f);
  const auto perturbed = enc.forward(seq);
  for (std::size_t t = 0; t + 1 < seq.size(); ++t)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_FLOAT_EQ(base[t].at(0, c), perturbed[t].at(0, c)) << "t=" << t;
  double diff = 0.0;
  for (std::size_t c = 0; c < 8; ++c)
    diff += std::abs(base.back().at(0, c) - perturbed.back().at(0, c));
  EXPECT_GT(diff, 1e-4);
}

TEST(Attention, LastStepAttendsToHistory) {
  // Changing an EARLY step must change the last output (attention reach).
  Rng rng(3);
  SelfAttentionEncoder enc(rng, 4, 8);
  auto seq = make_sequence(6, 1, 4);
  const auto base = enc.last_hidden(seq);
  seq.front() = Tensor::constant(1, 4, -5.0f);
  const auto perturbed = enc.last_hidden(seq);
  double diff = 0.0;
  for (std::size_t c = 0; c < 8; ++c) diff += std::abs(base.at(0, c) - perturbed.at(0, c));
  EXPECT_GT(diff, 1e-4);
}

TEST(Attention, PositionalEncodingBreaksPermutationInvariance) {
  // Identical tokens in different orders must encode differently.
  Rng rng(4);
  SelfAttentionEncoder enc(rng, 3, 8);
  std::vector<Tensor> seq_a{Tensor::constant(1, 3, 1.0f), Tensor::constant(1, 3, -1.0f)};
  std::vector<Tensor> seq_b{Tensor::constant(1, 3, -1.0f), Tensor::constant(1, 3, 1.0f)};
  const auto ha = enc.last_hidden(seq_a);
  const auto hb = enc.last_hidden(seq_b);
  double diff = 0.0;
  for (std::size_t c = 0; c < 8; ++c) diff += std::abs(ha.at(0, c) - hb.at(0, c));
  EXPECT_GT(diff, 1e-4);
}

TEST(Attention, GradientsReachAllParameters) {
  Rng rng(5);
  SelfAttentionEncoder enc(rng, 3, 6);
  const auto seq = make_sequence(4, 2, 3);
  auto loss = mse_loss(enc.last_hidden(seq), Tensor::constant(2, 6, 0.2f));
  loss.backward();
  for (auto& p : enc.parameters()) {
    double norm = 0.0;
    for (float g : p.grad()) norm += std::abs(g);
    EXPECT_GT(norm, 0.0);
  }
}

TEST(Attention, TrainsOnToyRegression) {
  // Predict the first step's value from the sequence — requires
  // attending across time.
  Rng rng(6);
  SelfAttentionEncoder enc(rng, 1, 8);
  Linear head(rng, 8, 1);
  std::vector<Tensor> params = enc.parameters();
  for (auto& p : head.parameters()) params.push_back(p);
  Adam::Config config;
  config.lr = 0.02f;
  Adam opt(params, config);

  Rng data_rng(7);
  for (int step = 0; step < 250; ++step) {
    std::vector<Tensor> seq;
    Tensor target(4, 1);
    for (std::size_t t = 0; t < 5; ++t) {
      Tensor x(4, 1);
      for (std::size_t b = 0; b < 4; ++b) {
        const float v = static_cast<float>(data_rng.uniform(-1, 1));
        x.set(b, 0, v);
        if (t == 0) target.set(b, 0, v);
      }
      seq.push_back(x);
    }
    opt.zero_grad();
    auto loss = mse_loss(head.forward(enc.last_hidden(seq)), target);
    loss.backward();
    opt.step();
  }
  // Evaluate.
  Rng eval_rng(8);
  double err = 0.0;
  for (int i = 0; i < 20; ++i) {
    std::vector<Tensor> seq;
    float first = 0.0f;
    for (std::size_t t = 0; t < 5; ++t) {
      const float v = static_cast<float>(eval_rng.uniform(-1, 1));
      if (t == 0) first = v;
      seq.push_back(Tensor::constant(1, 1, v));
    }
    err += std::abs(head.forward(enc.last_hidden(seq)).at(0, 0) - first);
  }
  EXPECT_LT(err / 20.0, 0.35);  // clearly better than chance (~0.67)
}

TEST(Attention, RejectsOverlongSequence) {
  Rng rng(9);
  SelfAttentionEncoder enc(rng, 2, 4, /*max_len=*/3);
  const auto seq = make_sequence(4, 1, 2);
  EXPECT_THROW((void)enc.forward(seq), ca5g::common::CheckError);
}

}  // namespace
