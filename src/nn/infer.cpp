#include "nn/infer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/contracts.hpp"

namespace ca5g::nn::infer {

// --- Arena -------------------------------------------------------------------

float* Arena::alloc(std::size_t count) {
  CA5G_DCHECK_MSG(count > 0, "arena alloc of zero floats");
  // The cursor only moves forward within a run: a block skipped because
  // it couldn't fit one allocation is not revisited for smaller ones.
  // That keeps every returned pointer stable and makes the placement —
  // and therefore capacity_bytes() — deterministic across identical
  // runs, which the zero-steady-state-growth test pins.
  while (cursor_ < blocks_.size() &&
         blocks_[cursor_].capacity - blocks_[cursor_].used < count)
    ++cursor_;
  if (cursor_ == blocks_.size()) {
    constexpr std::size_t kMinBlockFloats = std::size_t{1} << 14;  // 64 KiB
    std::size_t cap =
        blocks_.empty() ? kMinBlockFloats : blocks_.back().capacity * 2;
    cap = std::max(cap, count);
    Block block;
    block.data = std::make_unique<float[]>(cap);
    block.capacity = cap;
    blocks_.push_back(std::move(block));
  }
  Block& block = blocks_[cursor_];
  float* ptr = block.data.get() + block.used;
  block.used += count;
  run_floats_ += count;
  high_water_floats_ = std::max(high_water_floats_, run_floats_);
  return ptr;
}

void Arena::reset() noexcept {
  for (auto& block : blocks_) block.used = 0;
  cursor_ = 0;
  run_floats_ = 0;
}

std::size_t Arena::capacity_bytes() const noexcept {
  std::size_t floats = 0;
  for (const auto& block : blocks_) floats += block.capacity;
  return floats * sizeof(float);
}

Arena& thread_arena() {
  thread_local Arena arena;
  return arena;
}

// --- Kernels -----------------------------------------------------------------

namespace {

// The matmul kernel family. Four-lane float vectors from the GCC/Clang
// vector extension compile to plain SSE2 on baseline x86-64: no
// intrinsics, no runtime ISA dispatch. Lanes run across independent
// output columns, so every C element still sees exactly the float
// operations of the scalar loop, in the same order: its own ascending
// sum over the inner dimension, one multiply and one add per term.
using v4f = float __attribute__((vector_size(16)));
using v4i = std::int32_t __attribute__((vector_size(16)));

v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

/// Register tiles: R rows × V vectors of C held in R·V = 8 accumulators
/// for the whole inner loop, so a partial sum never round-trips through
/// memory. Four-row tiles (4 × 8 columns) reuse each loaded B vector for
/// four rows; a lone row (the B = 1 serving shape) gets 32 columns of
/// independent add chains instead.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileAccumulators = 8;

/// How a product accumulates into C.
enum class Rule {
  /// C += A·B from C's current value, skipping each term whose A value
  /// is zero (so 0·inf never reaches C): the forward and dB = Aᵀ·dC.
  kSkipZero,
  /// Each dot summed from zero with no skip, then added to C: dA = dC·Bᵀ.
  kDotThenAdd,
};

/// The left factor as a strided view: element (r, p) is a[r·rs + p·ps],
/// so A (rs = inner, ps = 1) and Aᵀ (rs = 1, ps = rows of A) share the
/// tile code.
struct Lhs {
  const float* a;
  std::size_t rs;
  std::size_t ps;
};

/// C rows [r0, r0 + R), columns [j0, j0 + 4·V) over the whole inner loop.
template <std::size_t R, std::size_t V, Rule kRule>
void tile(const Lhs& lhs, std::size_t r0, const float* b, float* c,
          std::size_t cols, std::size_t j0, std::size_t inner) {
  v4f acc[R][V];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v)
      acc[r][v] = kRule == Rule::kSkipZero
                      ? load4(c + (r0 + r) * cols + j0 + 4 * v)
                      : v4f{};
  const float* arow = lhs.a + r0 * lhs.rs;
  for (std::size_t p = 0; p < inner; ++p, arow += lhs.ps) {
    const float* brow = b + p * cols + j0;
    float av[R];
    bool dense = true, empty = true;
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      av[r] = arow[r * lhs.rs];
      dense = dense && av[r] != 0.0f;
      empty = empty && av[r] == 0.0f;
    }
    if (kRule == Rule::kSkipZero && empty) continue;
    if (kRule == Rule::kDotThenAdd || dense) {
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) {
        const v4f bv = load4(brow + 4 * v);
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r) acc[r][v] = acc[r][v] + av[r] * bv;
      }
    } else {
      // Some row's A value is zero: that row keeps its accumulators bit
      // for bit (a lane select, not an add of ±0).
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) {
        const v4f a = {av[r], av[r], av[r], av[r]};
        const v4i keep = a == 0.0f;
#pragma GCC unroll 8
        for (std::size_t v = 0; v < V; ++v)
          acc[r][v] = keep ? acc[r][v] : acc[r][v] + a * load4(brow + 4 * v);
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    float* crow = c + (r0 + r) * cols + j0;
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v) {
      if constexpr (kRule == Rule::kDotThenAdd)
        acc[r][v] = load4(crow + 4 * v) + acc[r][v];
      store4(crow + 4 * v, acc[r][v]);
    }
  }
}

/// Rows [r0, r0 + R) of C: full-width tiles, then 8-column tiles, then
/// the column tail one element at a time in the same order.
template <std::size_t R, Rule kRule>
void row_block(const Lhs& lhs, std::size_t r0, const float* b, float* c,
               std::size_t inner, std::size_t cols) {
  constexpr std::size_t kVectors = std::max<std::size_t>(2, kTileAccumulators / R);
  std::size_t j0 = 0;
  for (; j0 + 4 * kVectors <= cols; j0 += 4 * kVectors)
    tile<R, kVectors, kRule>(lhs, r0, b, c, cols, j0, inner);
  if constexpr (kVectors > 2)
    for (; j0 + 8 <= cols; j0 += 8) tile<R, 2, kRule>(lhs, r0, b, c, cols, j0, inner);
  for (std::size_t r = r0; r < r0 + R; ++r) {
    const float* arow = lhs.a + r * lhs.rs;
    for (std::size_t j = j0; j < cols; ++j) {
      float acc = kRule == Rule::kSkipZero ? c[r * cols + j] : 0.0f;
      for (std::size_t p = 0; p < inner; ++p) {
        const float av = arow[p * lhs.ps];
        if (kRule == Rule::kSkipZero && av == 0.0f) continue;
        acc += av * b[p * cols + j];
      }
      c[r * cols + j] = kRule == Rule::kSkipZero ? acc : c[r * cols + j] + acc;
    }
  }
}

/// C (rows × cols) accumulates Ã·B for the strided left factor Ã (rows ×
/// inner) and row-major B (inner × cols): 4-row blocks, then one 1–3-row
/// block for the remainder.
template <Rule kRule>
void matmul_tiled(const Lhs& lhs, const float* b, float* c, std::size_t rows,
                  std::size_t inner, std::size_t cols) {
  std::size_t r0 = 0;
  for (; r0 + kTileRows <= rows; r0 += kTileRows)
    row_block<kTileRows, kRule>(lhs, r0, b, c, inner, cols);
  switch (rows - r0) {
    case 3: row_block<3, kRule>(lhs, r0, b, c, inner, cols); break;
    case 2: row_block<2, kRule>(lhs, r0, b, c, inner, cols); break;
    case 1: row_block<1, kRule>(lhs, r0, b, c, inner, cols); break;
    default: break;
  }
}

}  // namespace

void matmul_xw(const float* x, const float* w, const float* bias, float* y,
               std::size_t rows, std::size_t in, std::size_t out) {
  std::fill(y, y + rows * out, 0.0f);
  matmul_ab(x, w, y, rows, in, out);
  if (bias) add_row_bias_inplace(y, bias, rows, out);
}

void matmul_ab(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  matmul_tiled<Rule::kSkipZero>(Lhs{a, k, 1}, b, c, m, k, n);
}

void matmul_at_b(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  matmul_tiled<Rule::kSkipZero>(Lhs{a, 1, k}, b, c, k, m, n);
}

void matmul_a_bt(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  // Transpose B (n × k) into per-thread scratch (k × n), so the product
  // takes the same row-major form as the other two.
  thread_local std::vector<float> bt;
  bt.resize(k * n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = b[j * k + p];
  matmul_tiled<Rule::kDotThenAdd>(Lhs{a, k, 1}, bt.data(), c, m, k, n);
}

void matmul_ab_naive(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = a[i * k + kk];
      if (aval == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void add_inplace(float* y, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + x[i];
}

void add_row_bias_inplace(float* y, const float* bias, std::size_t rows,
                          std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* yrow = y + r * cols;
    for (std::size_t c = 0; c < cols; ++c) yrow[c] = yrow[c] + bias[c];
  }
}

void tanh_inplace(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

void sigmoid_inplace(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void relu_inplace(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void slice_cols(const float* x, std::size_t rows, std::size_t src_cols,
                std::size_t start, std::size_t len, float* y) {
  CA5G_DCHECK_MSG(start + len <= src_cols, "slice_cols out of range");
  for (std::size_t r = 0; r < rows; ++r)
    std::copy(x + r * src_cols + start, x + r * src_cols + start + len,
              y + r * len);
}

void concat_cols(const float* const* parts, const std::size_t* widths,
                 std::size_t count, std::size_t rows, float* y) {
  std::size_t total = 0;
  for (std::size_t p = 0; p < count; ++p) total += widths[p];
  std::size_t offset = 0;
  for (std::size_t p = 0; p < count; ++p) {
    const std::size_t w = widths[p];
    for (std::size_t r = 0; r < rows; ++r)
      std::copy(parts[p] + r * w, parts[p] + (r + 1) * w,
                y + r * total + offset);
    offset += w;
  }
}

void mul_col_broadcast(const float* a, const float* col, float* y,
                       std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* arow = a + r * cols;
    float* yrow = y + r * cols;
    const float cv = col[r];
    for (std::size_t c = 0; c < cols; ++c) yrow[c] = arow[c] * cv;
  }
}

// --- Packed modules ----------------------------------------------------------

PackedLinear::PackedLinear(const Tensor& weight, const Tensor& bias_row)
    : in(weight.rows()),
      out(weight.cols()),
      w(weight.values()),
      bias(bias_row.values()) {
  CA5G_CHECK_MSG(bias_row.rows() == 1 && bias_row.cols() == out,
                 "packed linear bias shape mismatch");
}

PackedLinear::PackedLinear(const Linear& src)
    : PackedLinear(src.weight(), src.bias()) {}

void PackedLinear::forward(const float* x, std::size_t rows, float* y) const {
  matmul_xw(x, w.data(), bias.data(), y, rows, in, out);
}

PackedMlp::PackedMlp(const Mlp& src) {
  for (const auto& layer : src.layers()) layers.emplace_back(layer);
}

const float* PackedMlp::forward(Arena& arena, const float* x,
                                std::size_t rows) const {
  const float* h = x;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    float* y = arena.alloc(rows * layers[i].out);
    layers[i].forward(h, rows, y);
    if (i + 1 < layers.size()) relu_inplace(y, rows * layers[i].out);
    h = y;
  }
  return h;
}

void PackedLstm::Cell::step(const float* x, float* h, float* c,
                            std::size_t rows, float* xg, float* hg) const {
  const std::size_t g4 = 4 * hidden;
  matmul_xw(x, w_ih.data(), nullptr, xg, rows, in, g4);
  matmul_xw(h, w_hh.data(), nullptr, hg, rows, hidden, g4);
  for (std::size_t r = 0; r < rows; ++r) {
    float* grow = xg + r * g4;
    const float* hrow = hg + r * g4;
    // The graph's exact parenthesization: x·Wih + (h·Whh + bias).
    for (std::size_t j = 0; j < g4; ++j) grow[j] = grow[j] + (hrow[j] + bias[j]);
    sigmoid_inplace(grow, hidden);               // i
    sigmoid_inplace(grow + hidden, hidden);      // f
    tanh_inplace(grow + 2 * hidden, hidden);     // g
    sigmoid_inplace(grow + 3 * hidden, hidden);  // o
    float* hout = h + r * hidden;
    float* cout = c + r * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      const float iv = grow[j];
      const float fv = grow[hidden + j];
      const float gv = grow[2 * hidden + j];
      const float ov = grow[3 * hidden + j];
      const float cv = (fv * cout[j]) + (iv * gv);
      cout[j] = cv;
      hout[j] = ov * std::tanh(cv);
    }
  }
}

PackedLstm::PackedLstm(const Lstm& src) {
  for (const auto& cell : src.cells()) {
    Cell packed;
    packed.in = cell.input_size();
    packed.hidden = cell.hidden_size();
    packed.w_ih = cell.w_ih().values();
    packed.w_hh = cell.w_hh().values();
    packed.bias = cell.bias().values();
    cells.push_back(std::move(packed));
  }
}

float* PackedLstm::alloc_states(Arena& arena, std::size_t rows) const {
  float* states = arena.alloc(state_floats(rows));
  std::fill(states, states + state_floats(rows), 0.0f);
  return states;
}

const float* PackedLstm::step(const float* x, float* states, std::size_t rows,
                              float* xg, float* hg) const {
  const std::size_t seg = rows * hidden();
  const float* input = x;
  for (std::size_t l = 0; l < cells.size(); ++l) {
    float* h = states + (2 * l) * seg;
    float* c = states + (2 * l + 1) * seg;
    cells[l].step(input, h, c, rows, xg, hg);
    input = h;
  }
  return input;
}

PackedConv1d::PackedConv1d(const CausalConv1d& src)
    : in(src.taps().front().rows()),
      out(src.taps().front().cols()),
      kernel(src.kernel_size()),
      dilation(src.dilation()),
      bias(src.bias().values()) {
  for (const auto& tap : src.taps()) tap_w.push_back(tap.values());
}

void PackedConv1d::forward_step(const float* seq, std::size_t t,
                                std::size_t t_len, std::size_t rows, float* y,
                                float* tmp) const {
  CA5G_DCHECK_MSG(t < t_len, "conv step out of range");
  bool first = true;
  for (std::size_t k = 0; k < kernel; ++k) {
    const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(t) -
                               static_cast<std::ptrdiff_t>(k * dilation);
    if (src < 0) continue;  // causal zero padding
    const float* xs = seq + static_cast<std::size_t>(src) * rows * in;
    if (first) {
      matmul_xw(xs, tap_w[k].data(), nullptr, y, rows, in, out);
      first = false;
    } else {
      // Fold `acc + term` pairwise like the graph: the term's dot is
      // completed before it joins the accumulator.
      matmul_xw(xs, tap_w[k].data(), nullptr, tmp, rows, in, out);
      add_inplace(y, tmp, rows * out);
    }
  }
  if (first) std::fill(y, y + rows * out, 0.0f);
  add_row_bias_inplace(y, bias.data(), rows, out);
}

}  // namespace ca5g::nn::infer
