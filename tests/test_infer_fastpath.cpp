// The compiled inference fast path must be invisible: every DeepPredictor
// plan has to reproduce the autograd forward bit-for-bit (operator== on
// the predicted doubles, no tolerance), allocate nothing on the heap in
// steady state, build zero autograd Nodes, and stay race-free when many
// threads run a shared model. The graph and the plans share the nn::infer
// kernels, so a diff of the two paths cannot catch a kernel bug: the
// kernels themselves are pinned to naive scalar loops written here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/prism5g.hpp"
#include "nn/infer.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "predictors/deep.hpp"
#include "predictors/predictor.hpp"
#include "test_helpers.hpp"

namespace {

using namespace ca5g;
using namespace ca5g::predictors;
namespace infer = ca5g::nn::infer;

// Small enough to fit in a unit test, big enough to cover layer
// stacking (layers = 2) and predict_many chunking (batch_size = 8 with
// a larger test set).
TrainConfig fast_config(std::size_t layers = 2) {
  TrainConfig config;
  config.epochs = 2;
  config.hidden = 8;
  config.layers = layers;
  config.batch_size = 8;
  config.patience = 2;
  return config;
}

/// Random row-major values with a sprinkling of exact zeros, so the
/// matmul kernels' `x == 0 → skip` rule is actually exercised.
std::vector<float> random_values(common::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = (i % 7 == 3) ? 0.0f : static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

/// Predictions from both paths on the same fitted model must agree
/// exactly — predict() per window and the chunked predict_many().
void expect_fast_matches_graph(DeepPredictor& model,
                               const traces::Dataset::Split& split) {
  ASSERT_FALSE(split.test.empty());

  std::vector<std::vector<double>> fast_single;
  for (const auto* w : split.test) fast_single.push_back(model.predict(*w));
  const auto fast_many = model.predict_many(split.test);

  model.set_fast_path(false);
  ASSERT_FALSE(model.fast_path_active());
  std::vector<std::vector<double>> graph_single;
  for (const auto* w : split.test) graph_single.push_back(model.predict(*w));
  const auto graph_many = model.predict_many(split.test);
  model.set_fast_path(true);

  ASSERT_EQ(fast_many.size(), split.test.size());
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    EXPECT_EQ(fast_single[i], graph_single[i])
        << model.name() << " predict() diverged on window " << i;
    EXPECT_EQ(fast_many[i], graph_many[i])
        << model.name() << " predict_many() diverged on window " << i;
  }
}

// --- Arena -------------------------------------------------------------------

TEST(InferArena, ReusesBlocksAcrossResets) {
  infer::Arena arena;
  EXPECT_EQ(arena.capacity_bytes(), 0u);

  float* a = arena.alloc(100);
  float* b = arena.alloc(200);
  EXPECT_NE(a, b);
  const std::size_t cap = arena.capacity_bytes();
  EXPECT_GE(cap, 300u * sizeof(float));
  EXPECT_GE(arena.high_water_bytes(), 300u * sizeof(float));

  // Identical allocation sequences after reset() land on the same
  // addresses without growing the arena — the zero-steady-state-heap
  // property every plan run relies on.
  for (int round = 0; round < 5; ++round) {
    arena.reset();
    EXPECT_EQ(arena.alloc(100), a);
    EXPECT_EQ(arena.alloc(200), b);
    EXPECT_EQ(arena.capacity_bytes(), cap);
  }
}

TEST(InferArena, GrowsGeometricallyForOversizedRequests) {
  infer::Arena arena;
  // Larger than the minimum block: must still come back usable.
  float* big = arena.alloc(1u << 16);
  big[0] = 1.0f;
  big[(1u << 16) - 1] = 2.0f;
  EXPECT_GE(arena.capacity_bytes(), (1u << 16) * sizeof(float));

  // A small follow-up allocation must not disturb the big buffer.
  float* small = arena.alloc(8);
  small[0] = 3.0f;
  EXPECT_EQ(big[0], 1.0f);
  EXPECT_EQ(big[(1u << 16) - 1], 2.0f);
}

// --- Matmul products against naive references --------------------------------
//
// The graph and the plans share the matmul kernels, so comparing the two
// paths cannot catch a kernel bug. These tests pin each product to a plain
// triple loop written here, bit for bit, over a shape grid that covers
// full register tiles, row and column tails and the single-row serving
// shape.

/// Bit patterns, so that NaN results compare equal to themselves.
std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<std::uint32_t>(v[i]);
  return out;
}

/// C (rows × cols) += A·B, A (rows × inner) with the zero-skip.
std::vector<float> naive_ab(const std::vector<float>& a, const std::vector<float>& b,
                            std::vector<float> c, std::size_t rows,
                            std::size_t inner, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      float acc = c[i * cols + j];
      for (std::size_t p = 0; p < inner; ++p)
        if (a[i * inner + p] != 0.0f) acc = acc + a[i * inner + p] * b[p * cols + j];
      c[i * cols + j] = acc;
    }
  return c;
}

/// C (rows × cols) += Aᵀ·B, A (inner × rows) with the zero-skip.
std::vector<float> naive_at_b(const std::vector<float>& a, const std::vector<float>& b,
                              std::vector<float> c, std::size_t rows,
                              std::size_t inner, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      float acc = c[i * cols + j];
      for (std::size_t p = 0; p < inner; ++p)
        if (a[p * rows + i] != 0.0f) acc = acc + a[p * rows + i] * b[p * cols + j];
      c[i * cols + j] = acc;
    }
  return c;
}

/// C (rows × cols) += A·Bᵀ, B (cols × inner), each dot summed from zero.
std::vector<float> naive_a_bt(const std::vector<float>& a, const std::vector<float>& b,
                              std::vector<float> c, std::size_t rows,
                              std::size_t inner, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      float dot = 0.0f;
      for (std::size_t p = 0; p < inner; ++p) dot = dot + a[i * inner + p] * b[j * inner + p];
      c[i * cols + j] = c[i * cols + j] + dot;
    }
  return c;
}

struct MatmulCase {
  std::size_t rows, inner, cols;
  std::vector<float> a_rows;  ///< rows × inner, the left factor as A·B reads it
  std::vector<float> b;       ///< inner × cols
  std::vector<float> c;       ///< rows × cols accumulation seed
};

/// Row kZeroRow of the left factor (when rows > 2) is all zero and seeds
/// one C element with -0, column p_inf is zero in every row, and B holds
/// an `inf` in rows p_inf and p_inf + 1. Scattered zeros come from
/// random_values(). Only the zero-skip keeps row kZeroRow finite and its
/// -0 seed negative: adding 0·b would turn it into +0 or NaN.
constexpr std::size_t kZeroRow = 1;

MatmulCase make_case(common::Rng& rng, std::size_t rows, std::size_t inner,
                     std::size_t cols) {
  MatmulCase mc{rows, inner, cols, random_values(rng, rows * inner),
                random_values(rng, inner * cols), random_values(rng, rows * cols)};
  if (rows > 2) {
    std::fill(mc.a_rows.begin() + kZeroRow * inner,
              mc.a_rows.begin() + (kZeroRow + 1) * inner, 0.0f);
    mc.c[kZeroRow * cols] = -0.0f;
  }
  const std::size_t p_inf = inner / 2;
  for (std::size_t i = 0; i < rows; ++i) mc.a_rows[i * inner + p_inf] = 0.0f;
  const float inf = std::numeric_limits<float>::infinity();
  mc.b[p_inf * cols + cols / 2] = inf;
  mc.b[(p_inf + 1) % inner * cols + cols - 1] = inf;
  return mc;
}

template <typename Fn>
void for_each_shape(Fn&& fn) {
  common::Rng rng(11);
  for (std::size_t rows : {1, 3, 4, 5, 33})
    for (std::size_t inner : {1, 13, 16, 32})
      for (std::size_t cols : {1, 7, 8, 9, 10, 128}) {
        SCOPED_TRACE(testing::Message() << rows << "x" << inner << "x" << cols);
        fn(make_case(rng, rows, inner, cols));
      }
}

bool all_finite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(), [](float x) { return std::isfinite(x); });
}

/// The skipping products keep the all-zero row finite, with its -0 seed.
void expect_zero_row_kept(const MatmulCase& mc, const std::vector<float>& ref) {
  if (mc.rows <= 2) return;
  const auto row = ref.begin() + static_cast<std::ptrdiff_t>(kZeroRow * mc.cols);
  ASSERT_TRUE(all_finite(std::vector<float>(row, row + static_cast<std::ptrdiff_t>(mc.cols))));
  ASSERT_TRUE(std::signbit(*row) && *row == 0.0f);
}

TEST(InferKernels, MatmulAbMatchesNaiveLoops) {
  for_each_shape([](const MatmulCase& mc) {
    const auto ref = naive_ab(mc.a_rows, mc.b, mc.c, mc.rows, mc.inner, mc.cols);
    expect_zero_row_kept(mc, ref);
    auto c = mc.c;
    infer::matmul_ab(mc.a_rows.data(), mc.b.data(), c.data(), mc.rows, mc.inner, mc.cols);
    EXPECT_EQ(bits(c), bits(ref));
  });
}

TEST(InferKernels, MatmulAtBMatchesNaiveLoops) {
  for_each_shape([](const MatmulCase& mc) {
    // A stored (inner × rows): the transpose of the case's left factor.
    std::vector<float> a(mc.inner * mc.rows);
    for (std::size_t i = 0; i < mc.rows; ++i)
      for (std::size_t p = 0; p < mc.inner; ++p)
        a[p * mc.rows + i] = mc.a_rows[i * mc.inner + p];
    const auto ref = naive_at_b(a, mc.b, mc.c, mc.rows, mc.inner, mc.cols);
    expect_zero_row_kept(mc, ref);
    auto c = mc.c;
    infer::matmul_at_b(a.data(), mc.b.data(), c.data(), mc.inner, mc.rows, mc.cols);
    EXPECT_EQ(bits(c), bits(ref));
  });
}

TEST(InferKernels, MatmulABtMatchesNaiveLoops) {
  for_each_shape([](const MatmulCase& mc) {
    // B stored (cols × inner), so the inf meets a zero of A with no skip.
    std::vector<float> b(mc.cols * mc.inner);
    for (std::size_t p = 0; p < mc.inner; ++p)
      for (std::size_t j = 0; j < mc.cols; ++j) b[j * mc.inner + p] = mc.b[p * mc.cols + j];
    const auto ref = naive_a_bt(mc.a_rows, b, mc.c, mc.rows, mc.inner, mc.cols);
    ASSERT_FALSE(all_finite(ref)) << "0·inf must reach the dot unskipped";
    auto c = mc.c;
    infer::matmul_a_bt(mc.a_rows.data(), b.data(), c.data(), mc.rows, mc.inner, mc.cols);
    EXPECT_EQ(bits(c), bits(ref));
  });
}

/// y = x·W from a zero seed, with and without the bias row added after
/// the full dot: the Linear forward as both paths compute it.
TEST(InferKernels, MatmulXwMatchesGraphMatmulPlusBias) {
  for_each_shape([](const MatmulCase& mc) {
    const std::vector<float> zero(mc.rows * mc.cols, 0.0f);
    const auto dot = naive_ab(mc.a_rows, mc.b, zero, mc.rows, mc.inner, mc.cols);
    const std::vector<float> bias(mc.c.begin(), mc.c.begin() + mc.cols);
    auto with_bias = dot;
    for (std::size_t i = 0; i < with_bias.size(); ++i)
      with_bias[i] = with_bias[i] + bias[i % mc.cols];

    std::vector<float> y(mc.rows * mc.cols);
    infer::matmul_xw(mc.a_rows.data(), mc.b.data(), nullptr, y.data(), mc.rows,
                     mc.inner, mc.cols);
    EXPECT_EQ(bits(y), bits(dot));
    infer::matmul_xw(mc.a_rows.data(), mc.b.data(), bias.data(), y.data(), mc.rows,
                     mc.inner, mc.cols);
    EXPECT_EQ(bits(y), bits(with_bias));

    const auto x = nn::Tensor::from(mc.a_rows, mc.rows, mc.inner);
    const auto w = nn::Tensor::from(mc.b, mc.inner, mc.cols);
    EXPECT_EQ(bits(nn::matmul(x, w).values()), bits(dot));
    EXPECT_EQ(bits((nn::matmul(x, w) + nn::Tensor::from(bias, 1, mc.cols)).values()),
              bits(with_bias));
  });
}

// --- Elementwise and shape kernels against scalar formulas -------------------
//
// Each kernel, and the autograd op that shares its forward, must equal
// the scalar formula written here bit for bit. Odd rows plant ±0, ±inf
// and large magnitudes; even rows are plain normals.

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kSpecials[] = {0.0f,  -0.0f,  kInf,   -kInf,  1e30f,
                               -1e30f, 3e38f, -3e38f, 88.5f, -104.0f};

std::vector<float> special_values(common::Rng& rng, std::size_t rows,
                                  std::size_t cols) {
  std::vector<float> v(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      v[i] = (r % 2 == 1 && c % 3 == 0)
                 ? kSpecials[(i / 3) % std::size(kSpecials)]
                 : static_cast<float>(rng.normal(0.0, 4.0));
    }
  return v;
}

template <typename Fn>
void for_each_elementwise_shape(Fn&& fn) {
  common::Rng rng(12);
  for (std::size_t rows : {1, 3, 4, 33})
    for (std::size_t cols : {1, 7, 17}) {
      SCOPED_TRACE(testing::Message() << rows << "x" << cols);
      fn(rng, rows, cols);
    }
}

TEST(InferKernels, ActivationsMatchGraphOps) {
  for_each_elementwise_shape([](common::Rng& rng, std::size_t rows, std::size_t cols) {
    const auto xv = special_values(rng, rows, cols);
    const auto x = nn::Tensor::from(xv, rows, cols);
    std::vector<float> tanh_ref(xv.size()), sigmoid_ref(xv.size()), relu_ref(xv.size());
    for (std::size_t i = 0; i < xv.size(); ++i) {
      tanh_ref[i] = std::tanh(xv[i]);
      sigmoid_ref[i] = 1.0f / (1.0f + std::exp(-xv[i]));
      relu_ref[i] = xv[i] > 0.0f ? xv[i] : 0.0f;
    }

    auto buf = xv;
    infer::tanh_inplace(buf.data(), buf.size());
    EXPECT_EQ(bits(buf), bits(tanh_ref));
    EXPECT_EQ(bits(nn::tanh_op(x).values()), bits(tanh_ref));

    buf = xv;
    infer::sigmoid_inplace(buf.data(), buf.size());
    EXPECT_EQ(bits(buf), bits(sigmoid_ref));
    EXPECT_EQ(bits(nn::sigmoid(x).values()), bits(sigmoid_ref));

    buf = xv;
    infer::relu_inplace(buf.data(), buf.size());
    EXPECT_EQ(bits(buf), bits(relu_ref));
    EXPECT_EQ(bits(nn::relu(x).values()), bits(relu_ref));
  });
}

TEST(InferKernels, ShapeOpsMatchGraphOps) {
  for_each_elementwise_shape([](common::Rng& rng, std::size_t rows, std::size_t cols) {
    const auto av = special_values(rng, rows, cols);
    const auto bv = special_values(rng, rows, cols);
    const auto colv = special_values(rng, rows, 1);
    const auto a = nn::Tensor::from(av, rows, cols);
    const auto b = nn::Tensor::from(bv, rows, cols);
    const auto bias = nn::Tensor::from(std::vector<float>(bv.begin(), bv.begin() + cols),
                                       1, cols);
    const auto col = nn::Tensor::from(colv, rows, 1);

    // y + x, elementwise and with the row broadcast.
    std::vector<float> sum_ref(av.size()), bias_ref(av.size());
    for (std::size_t i = 0; i < av.size(); ++i) {
      sum_ref[i] = av[i] + bv[i];
      bias_ref[i] = av[i] + bv[i % cols];
    }
    auto y = av;
    infer::add_inplace(y.data(), bv.data(), y.size());
    EXPECT_EQ(bits(y), bits(sum_ref));
    EXPECT_EQ(bits((a + b).values()), bits(sum_ref));
    y = av;
    infer::add_row_bias_inplace(y.data(), bv.data(), rows, cols);
    EXPECT_EQ(bits(y), bits(bias_ref));
    EXPECT_EQ(bits((a + bias).values()), bits(bias_ref));

    // Column broadcast: y[r][c] = a[r][c] · col[r].
    std::vector<float> bcast_ref(av.size());
    for (std::size_t i = 0; i < av.size(); ++i) bcast_ref[i] = av[i] * colv[i / cols];
    infer::mul_col_broadcast(av.data(), colv.data(), y.data(), rows, cols);
    EXPECT_EQ(bits(y), bits(bcast_ref));
    EXPECT_EQ(bits(nn::mul_col_broadcast(a, col).values()), bits(bcast_ref));

    // Every column block [start, start + len) is a plain copy.
    for (std::size_t start = 0; start < cols; ++start)
      for (std::size_t len = 1; start + len <= cols; ++len) {
        std::vector<float> slice_ref(rows * len);
        for (std::size_t r = 0; r < rows; ++r)
          for (std::size_t c = 0; c < len; ++c)
            slice_ref[r * len + c] = av[r * cols + start + c];
        std::vector<float> sl(rows * len);
        infer::slice_cols(av.data(), rows, cols, start, len, sl.data());
        EXPECT_EQ(bits(sl), bits(slice_ref));
        EXPECT_EQ(bits(nn::slice_cols(a, start, len).values()), bits(slice_ref));
      }

    // Concatenation of [a | col | b] along columns.
    const std::size_t total = 2 * cols + 1;
    std::vector<float> cat_ref(rows * total);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        cat_ref[r * total + c] = av[r * cols + c];
        cat_ref[r * total + cols + 1 + c] = bv[r * cols + c];
      }
      cat_ref[r * total + cols] = colv[r];
    }
    const float* parts[] = {av.data(), colv.data(), bv.data()};
    const std::size_t widths[] = {cols, 1, cols};
    std::vector<float> cat(rows * total);
    infer::concat_cols(parts, widths, 3, rows, cat.data());
    EXPECT_EQ(bits(cat), bits(cat_ref));
    const nn::Tensor part_tensors[] = {a, col, b};
    EXPECT_EQ(bits(nn::concat_cols(part_tensors).values()), bits(cat_ref));
  });
}

// --- Plan vs graph: every DeepPredictor subclass -----------------------------

TEST(InferFastPath, LstmPlanMatchesGraph) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(21);
  const auto split = ds.random_split(0.5, 0.2, rng);
  LstmPredictor model(fast_config(2));
  model.fit(ds, split.train, split.val);
  expect_fast_matches_graph(model, split);
}

TEST(InferFastPath, TcnPlanMatchesGraph) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(22);
  const auto split = ds.random_split(0.5, 0.2, rng);
  TcnPredictor model(fast_config(2));
  model.fit(ds, split.train, split.val);
  expect_fast_matches_graph(model, split);
}

TEST(InferFastPath, Lumos5gPlanMatchesGraph) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(23);
  const auto split = ds.random_split(0.5, 0.2, rng);
  Lumos5gPredictor model(fast_config(1));
  model.fit(ds, split.train, split.val);
  expect_fast_matches_graph(model, split);
}

TEST(InferFastPath, Prism5gPlanMatchesGraph) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(24);
  const auto split = ds.random_split(0.5, 0.2, rng);
  core::Prism5G model(fast_config(1));
  model.fit(ds, split.train, split.val);
  expect_fast_matches_graph(model, split);
}

TEST(InferFastPath, Prism5gAblationsMatchGraph) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(25);
  const auto split = ds.random_split(0.5, 0.2, rng);

  core::Prism5G no_state_model(fast_config(1), core::Prism5G::Variant::kNoState);
  no_state_model.fit(ds, split.train, split.val);
  expect_fast_matches_graph(no_state_model, split);

  core::Prism5G no_fusion_model(fast_config(1), core::Prism5G::Variant::kNoFusion);
  no_fusion_model.fit(ds, split.train, split.val);
  expect_fast_matches_graph(no_fusion_model, split);
}

TEST(InferFastPath, Prism5gPlanMatchesGraphOnInactiveCcs) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(31);
  const auto split = ds.random_split(0.5, 0.2, rng);
  core::Prism5G model(fast_config(1));
  model.fit(ds, split.train, split.val);

  // The plan copies a precomputed encoder state for CC rows whose gated
  // input is zero over the whole history. Cover a window with no active
  // CC at all (no row is encoded), one whose CC 0 joins halfway through
  // (a zero prefix is not a zero history), and an unedited window.
  std::vector<traces::Window> edited = {*split.test[0], *split.test[1],
                                        *split.test[2]};
  const std::size_t t_len = edited[0].history();
  for (std::size_t t = 0; t < t_len; ++t)
    for (std::size_t c = 0; c < ds.cc_slots(); ++c) edited[0].mask(t, c) = 0.0f;
  for (std::size_t t = 0; t < t_len / 2; ++t) edited[1].mask(t, 0) = 0.0f;

  traces::Dataset::Split edited_split;
  for (const auto& w : edited) edited_split.test.push_back(&w);
  expect_fast_matches_graph(model, edited_split);
}

/// Runs `fn` with the compiled plan, then on the autograd graph.
template <typename Fn>
void on_plan_and_graph(DeepPredictor& model, Fn&& fn) {
  {
    SCOPED_TRACE("plan");
    fn();
  }
  model.set_fast_path(false);
  {
    SCOPED_TRACE("graph");
    fn();
  }
  model.set_fast_path(true);
}

// Every forward sizes a batch by its first window's history: a shorter
// window later in the batch must be refused, not read past its end.
TEST(InferFastPath, PredictManyRejectsMixedHistories) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(41);
  const auto split = ds.random_split(0.5, 0.2, rng);
  LstmPredictor model(fast_config(1));
  model.fit(ds, split.train, split.val);

  traces::DatasetSpec spec;
  spec.history = 5;
  const auto trace = test::synthetic_trace(200);
  const auto shorter = traces::build_window(trace.samples, 0, spec, ds.cc_slots(),
                                            ds.tput_scale_mbps());
  ASSERT_EQ(shorter.history(), 5u);
  const std::vector<const traces::Window*> mixed{split.test[0], &shorter};
  on_plan_and_graph(model, [&] {
    EXPECT_THROW((void)model.predict_many(mixed), common::CheckError);
  });
}

// A window laid out for another CC count must be refused by the plan,
// the graph and predict_per_cc, whether it has fewer slots than the
// model (read out of bounds before) or more (CCs 4-7 silently dropped).
TEST(InferFastPath, Prism5gRejectsWindowsOfOtherCcSlots) {
  const auto ds = test::synthetic_dataset(2, 200);
  ASSERT_EQ(ds.cc_slots(), 4u);
  common::Rng rng(42);
  const auto split = ds.random_split(0.5, 0.2, rng);
  core::Prism5G model(fast_config(1));
  model.fit(ds, split.train, split.val);

  for (const std::size_t slots : {2, 8}) {
    SCOPED_TRACE(testing::Message() << slots << " CC slots");
    auto trace = test::synthetic_trace(200);
    for (auto& sample : trace.samples)
      sample.ccs.resize(std::min(sample.ccs.size(), slots));
    const auto w = traces::build_window(trace.samples, 0, traces::DatasetSpec{}, slots,
                                        ds.tput_scale_mbps());
    ASSERT_EQ(w.history(), ds.history());
    const std::vector<const traces::Window*> batch{split.test[0], &w};
    on_plan_and_graph(model, [&] {
      EXPECT_THROW((void)model.predict(w), common::CheckError);
      EXPECT_THROW((void)model.predict_many(batch), common::CheckError);
    });
    EXPECT_THROW((void)model.predict_per_cc(w), common::CheckError);
  }
}

// --- Zero steady-state allocations -------------------------------------------

TEST(InferFastPath, ArenaStopsGrowingAfterFirstRun) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(28);
  const auto split = ds.random_split(0.5, 0.2, rng);
  LstmPredictor model(fast_config(2));
  model.fit(ds, split.train, split.val);

  // First pass sizes this thread's arena; afterwards the identical
  // allocation sequence must never grow it again.
  (void)model.predict_many(split.test);
  const std::size_t cap = infer::thread_arena().capacity_bytes();
  EXPECT_GT(cap, 0u);
  for (int round = 0; round < 5; ++round) {
    (void)model.predict_many(split.test);
    for (const auto* w : split.test) (void)model.predict(*w);
    EXPECT_EQ(infer::thread_arena().capacity_bytes(), cap)
        << "arena grew on steady-state round " << round;
  }
}

TEST(InferFastPath, PlanBuildsNoAutogradNodes) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(29);
  const auto split = ds.random_split(0.5, 0.2, rng);
  core::Prism5G model(fast_config(1));
  model.fit(ds, split.train, split.val);

  // The compiled path must never touch the autograd heap: zero Node
  // constructions across single and batched inference, and across the
  // eval entry point (evaluate_rmse drives predict_many).
  const std::uint64_t before = nn::debug_node_allocations();
  (void)model.predict_many(split.test);
  for (const auto* w : split.test) (void)model.predict(*w);
  (void)predictors::evaluate_rmse(model, split.test);
  EXPECT_EQ(nn::debug_node_allocations(), before);

  // Sanity-check the hook itself: the graph path does allocate Nodes.
  model.set_fast_path(false);
  (void)model.predict(*split.test.front());
  EXPECT_GT(nn::debug_node_allocations(), before);
  model.set_fast_path(true);
}

// --- Concurrency: shared plan, per-thread arenas -----------------------------

TEST(InferFastPath, ConcurrentPlanRunsAreBitIdentical) {
  const auto ds = test::synthetic_dataset(2, 200);
  common::Rng rng(30);
  const auto split = ds.random_split(0.5, 0.2, rng);
  LstmPredictor model(fast_config(2));
  model.fit(ds, split.train, split.val);

  std::vector<std::vector<double>> reference;
  for (const auto* w : split.test) reference.push_back(model.predict(*w));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < split.test.size(); ++i) {
          const std::size_t j =
              (i + t * split.test.size() / kThreads) % split.test.size();
          if (model.predict(*split.test[j]) != reference[j]) {
            failures[t] = "thread " + std::to_string(t) +
                          " diverged on window " + std::to_string(j);
            return;
          }
        }
        const auto many = model.predict_many(split.test);
        for (std::size_t j = 0; j < many.size(); ++j) {
          if (many[j] != reference[j]) {
            failures[t] = "thread " + std::to_string(t) +
                          " predict_many diverged on window " + std::to_string(j);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;
}

}  // namespace
