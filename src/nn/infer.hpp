// Graph-free inference fast path. The autograd Tensor builds a
// reverse-mode graph on every op — one shared_ptr<Node> plus heap
// vectors per matmul/add/activation — which is pure tax when nothing
// will ever call backward(). Serving (src/serve) and evaluation
// (src/eval) run the same forward thousands of times per second, so
// this header provides:
//
//   * Arena — a chunked bump allocator for forward scratch. Blocks are
//     never freed by reset(), so after the first forward a plan runs
//     with zero steady-state heap allocations (pointers into the arena
//     stay valid until reset()). One arena per thread via
//     thread_arena().
//   * Kernels — raw float entry points (matmul, add, bias-add,
//     tanh/sigmoid/relu, concat, slice, softmax, rowwise-dot,
//     col-broadcast) that write into caller buffers and never construct
//     detail::Node. They are the only forward code for these ops: the
//     autograd Tensor ops call them for their values (and the matmul
//     backward calls the matmul products), so the graph and the plans
//     cannot drift apart. Tests compare every kernel with naive scalar
//     loops written in the test, bit for bit, not with a tolerance.
//   * Packed modules — PackedLinear/PackedMlp/PackedLstm/PackedConv1d
//     snapshot a layer's weights once at plan-compile time into flat
//     contiguous buffers for matmul_xw. Plans are immutable after
//     construction and safe to run concurrently from many threads.
//
// A compiled plan must reproduce forward_batch(..., training=false)
// bit-for-bit, so that the two paths compose the same kernels in the same
// order; bench_infer_fastpath + tests/test_infer_fastpath.cpp enforce it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace ca5g::nn::infer {

// --- Arena -------------------------------------------------------------------

/// Chunked bump allocator for forward-pass scratch. alloc() hands out
/// float buffers from fixed blocks (geometric growth when a run needs
/// more); reset() rewinds the cursor without freeing, so a steady-state
/// forward touches the heap zero times. Pointers returned since the
/// last reset() stay valid — blocks are never reused within a run.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// A buffer of `count` floats (uninitialized). Valid until reset().
  [[nodiscard]] float* alloc(std::size_t count);

  /// Rewind to empty, keeping every block for reuse.
  void reset() noexcept;

  /// Total bytes owned across all blocks. Stable across runs once the
  /// first forward has sized the arena — tests assert exactly that.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept;

  /// Largest bytes handed out between two resets so far.
  [[nodiscard]] std::size_t high_water_bytes() const noexcept {
    return high_water_floats_ * sizeof(float);
  }

 private:
  struct Block {
    std::unique_ptr<float[]> data;
    std::size_t capacity = 0;  ///< floats
    std::size_t used = 0;      ///< floats
  };

  std::vector<Block> blocks_;
  std::size_t cursor_ = 0;            ///< block currently being filled
  std::size_t run_floats_ = 0;        ///< floats handed out since reset()
  std::size_t high_water_floats_ = 0;
};

/// The calling thread's arena (function-local thread_local). Serve
/// workers and eval threads each get their own scratch for free; plans
/// are immutable, so concurrent runs on a shared model never race.
[[nodiscard]] Arena& thread_arena();

// --- Kernels -----------------------------------------------------------------
//
// The matmul products are register-tiled SIMD kernels (GCC/Clang
// vector extension; eight vector accumulators per tile: 4 rows × 8
// columns, or up to 32 columns when fewer rows remain). Lanes run across output columns, never
// along the dot, so each output element sees the scalar loop's exact
// float operations in the same order; the per-kernel notes state that
// order. The bit-identity needs -ffp-contract=off, which every target
// that builds src/ compiles with (docs/TESTING.md).

/// y = x·W (+ bias broadcast when non-null) with W row-major (in × out),
/// the autograd Linear's layout: y is zeroed, matmul_ab accumulates
/// x·W, and the bias lands after the full dot, exactly like
/// `matmul(x, W) + bias`.
void matmul_xw(const float* x, const float* w, const float* bias, float* y,
               std::size_t rows, std::size_t in, std::size_t out);

/// C += A·B with A (m×k), B (k×n), C (m×n): the autograd matmul's
/// forward. Each C element accumulates from its current value over k
/// ascending, skipping every term whose A value is zero.
void matmul_ab(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);

/// C += Aᵀ·B with A (m×k), B (m×n), C (k×n): the matmul backward's
/// dB = Aᵀ·dC. Each C element accumulates from its current value over
/// the m rows ascending, with the same zero-skip on A.
void matmul_at_b(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n);

/// C += A·Bᵀ with A (m×k), B (n×k), C (m×n): the matmul backward's
/// dA = dC·Bᵀ. Each dot is summed from zero over k ascending, with no
/// zero-skip, and then added to its C element.
void matmul_a_bt(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n);

/// y[i] = y[i] + x[i] — the elementwise operator+ forward, and one
/// pairwise fold step `acc + term`.
void add_inplace(float* y, const float* x, std::size_t n);

/// y[r][c] = y[r][c] + bias[c] — the operator+ row-broadcast forward.
void add_row_bias_inplace(float* y, const float* bias, std::size_t rows,
                          std::size_t cols);

/// The activation forwards, in place: libm tanh, 1 / (1 + exp(−x)),
/// and x > 0 ? x : 0.
void tanh_inplace(float* x, std::size_t n);
void sigmoid_inplace(float* x, std::size_t n);
void relu_inplace(float* x, std::size_t n);

/// Copy column block [start, start+len) of x (rows × src_cols) into y
/// (rows × len) — the slice_cols forward.
void slice_cols(const float* x, std::size_t rows, std::size_t src_cols,
                std::size_t start, std::size_t len, float* y);

/// Concatenate `count` parts (each rows × widths[p]) along columns into
/// y (rows × Σ widths) — the concat_cols forward.
void concat_cols(const float* const* parts, const std::size_t* widths,
                 std::size_t count, std::size_t rows, float* y);

/// y[r][c] = a[r][c] · col[r] — the mul_col_broadcast forward.
void mul_col_broadcast(const float* a, const float* col, float* y,
                       std::size_t rows, std::size_t cols);

// --- Packed modules ----------------------------------------------------------

/// A Linear captured for inference: weights copied once into a flat
/// (in × out) buffer for matmul_xw. Snapshots,
/// not views — the plan stays valid (if stale) while a new fit()
/// mutates the module, and that fit() compiles a new plan at its end.
struct PackedLinear {
  std::size_t in = 0;
  std::size_t out = 0;
  std::vector<float> w;     ///< in × out (the Linear's own layout)
  std::vector<float> bias;  ///< out

  PackedLinear() = default;
  PackedLinear(const Tensor& weight, const Tensor& bias_row);
  explicit PackedLinear(const Linear& src);

  /// y = x·W + bias into caller buffer y (rows × out).
  void forward(const float* x, std::size_t rows, float* y) const;
};

/// An Mlp captured for inference: ReLU between layers, none after the
/// last — exactly Mlp::forward.
struct PackedMlp {
  std::vector<PackedLinear> layers;

  PackedMlp() = default;
  explicit PackedMlp(const Mlp& src);

  /// Returns an arena buffer (rows × the last layer's out).
  [[nodiscard]] const float* forward(Arena& arena, const float* x,
                                     std::size_t rows) const;
};

/// A stacked LSTM captured for inference. State lives in one flat arena
/// buffer laid out [layer0 h | layer0 c | layer1 h | layer1 c | ...],
/// each segment rows × hidden, updated in place step by step.
struct PackedLstm {
  struct Cell {
    std::size_t in = 0;
    std::size_t hidden = 0;
    std::vector<float> w_ih;  ///< in × 4·hidden
    std::vector<float> w_hh;  ///< hidden × 4·hidden
    std::vector<float> bias;  ///< 4·hidden

    /// One LSTM step: reads x (rows × in), updates h and c (rows ×
    /// hidden) in place. xg/hg are rows × 4·hidden scratch. Reproduces
    /// LstmCell::step bit-for-bit: gates = x·Wih + (h·Whh + bias),
    /// gate order [i, f, g, o], c' = f·c + i·g, h' = o·tanh(c').
    void step(const float* x, float* h, float* c, std::size_t rows, float* xg,
              float* hg) const;
  };

  std::vector<Cell> cells;

  PackedLstm() = default;
  explicit PackedLstm(const Lstm& src);

  [[nodiscard]] std::size_t hidden() const { return cells.front().hidden; }
  [[nodiscard]] std::size_t state_floats(std::size_t rows) const {
    return cells.size() * 2 * rows * hidden();
  }

  /// Zeroed state buffer (the graph's zero_state) from the arena.
  [[nodiscard]] float* alloc_states(Arena& arena, std::size_t rows) const;

  /// One stacked step over all layers; x is rows × cells[0].in. Returns
  /// the top layer's h (a pointer into `states`). xg/hg are rows ×
  /// 4·hidden scratch shared across layers.
  const float* step(const float* x, float* states, std::size_t rows, float* xg,
                    float* hg) const;

  /// Top layer's hidden segment of a state buffer.
  [[nodiscard]] const float* top_hidden(const float* states,
                                        std::size_t rows) const {
    return states + (cells.size() - 1) * 2 * rows * hidden();
  }
};

/// A CausalConv1d captured for inference.
struct PackedConv1d {
  std::size_t in = 0;
  std::size_t out = 0;
  std::size_t kernel = 0;
  std::size_t dilation = 0;
  std::vector<std::vector<float>> tap_w;  ///< kernel of (in × out)
  std::vector<float> bias;                ///< out

  PackedConv1d() = default;
  explicit PackedConv1d(const CausalConv1d& src);

  /// One output step t over a flat sequence buffer seq (t_len × rows ×
  /// in, step-major): y (rows × out) = Σ_k seq[t − k·dilation]·Wk +
  /// bias, folding terms pairwise in k order like the graph.
  /// `tmp` is rows × out scratch.
  void forward_step(const float* seq, std::size_t t, std::size_t t_len,
                    std::size_t rows, float* y, float* tmp) const;
};

// --- Metrics -----------------------------------------------------------------

/// Metric names the fast path records (registered lazily at the predict
/// call sites in src/predictors/deep.cpp; the prism5g_lint naming rule
/// validates this list).
inline constexpr const char* kInferMetricNames[] = {
    "infer.plan_runs_total",   ///< compiled-plan forward batches
    "infer.graph_runs_total",  ///< autograd fallback forward batches
    "infer.arena_bytes",       ///< thread arena high-water mark
    "infer.window_ns",         ///< plan wall time per window
};

}  // namespace ca5g::nn::infer
