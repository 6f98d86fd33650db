#include "nn/tensor.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "common/contracts.hpp"
#include "nn/infer.hpp"

namespace ca5g::nn {
namespace {

/// Lifetime node-construction count backing debug_node_allocations().
std::atomic<std::uint64_t> g_node_allocations{0};

}  // namespace

std::uint64_t debug_node_allocations() noexcept {
  return g_node_allocations.load(std::memory_order_relaxed);
}

namespace detail {

/// Graph node: storage, gradient, and the local backward rule.
struct Node {
  std::vector<float> values;
  std::vector<float> grad;
  std::size_t rows = 0;
  std::size_t cols = 0;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Accumulates this node's grad into its parents' grads.
  std::function<void(Node&)> backward_fn;

  Node(std::size_t r, std::size_t c, bool rg)
      : values(r * c, 0.0f), rows(r), cols(c), requires_grad(rg) {
    if (rg) grad.assign(r * c, 0.0f);
    g_node_allocations.fetch_add(1, std::memory_order_relaxed);
  }

  void ensure_grad() {
    if (grad.size() != values.size()) grad.assign(values.size(), 0.0f);
  }
};

}  // namespace detail

using detail::Node;

namespace {

std::shared_ptr<Node> make_result(std::size_t rows, std::size_t cols,
                                  std::vector<std::shared_ptr<Node>> parents) {
  bool rg = false;
  for (const auto& p : parents) rg = rg || p->requires_grad;
  auto node = std::make_shared<Node>(rows, cols, rg);
  node->parents = std::move(parents);
  if (rg) node->ensure_grad();
  return node;
}

/// A result node shaped like `a` holding a copy of its values, for the
/// in-place infer kernels to finish.
std::shared_ptr<Node> copy_result(const Tensor& a,
                                  std::vector<std::shared_ptr<Node>> parents) {
  auto out = make_result(a.rows(), a.cols(), std::move(parents));
  std::copy(a.values().begin(), a.values().end(), out->values.begin());
  return out;
}

void check_defined(const Tensor& t, const char* what) {
  CA5G_CHECK_MSG(t.defined(), "undefined tensor passed to " << what);
}

// Gradient accumulation over a rows × cols grid, rows ascending, so every
// gradient element sums its terms in row order. A dst_stride of 0 sums
// the rows into one (the broadcast operand's gradient).

/// dst[r·dst_stride + c] += src[r·src_stride + c].
void add_grid(float* __restrict dst, std::size_t dst_stride, const float* __restrict src,
              std::size_t src_stride, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* __restrict d = dst + r * dst_stride;
    const float* __restrict g = src + r * src_stride;
    for (std::size_t c = 0; c < cols; ++c) d[c] += g[c];
  }
}

/// dst[r·dst_stride + c] += grad[r·cols + c] · x[r·x_stride + c].
void mul_grid(float* __restrict dst, std::size_t dst_stride, const float* __restrict grad,
              const float* __restrict x, std::size_t x_stride, std::size_t rows,
              std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* __restrict d = dst + r * dst_stride;
    const float* __restrict g = grad + r * cols;
    const float* __restrict xr = x + r * x_stride;
    for (std::size_t c = 0; c < cols; ++c) d[c] += g[c] * xr[c];
  }
}

}  // namespace

Tensor::Tensor(std::size_t rows, std::size_t cols, bool requires_grad)
    : node_(std::make_shared<Node>(rows, cols, requires_grad)) {}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols) { return Tensor(rows, cols, false); }

Tensor Tensor::constant(std::size_t rows, std::size_t cols, float value) {
  Tensor t(rows, cols, false);
  std::fill(t.values().begin(), t.values().end(), value);
  return t;
}

Tensor Tensor::from(std::vector<float> values, std::size_t rows, std::size_t cols) {
  CA5G_CHECK_MSG(values.size() == rows * cols, "from(): size mismatch");
  Tensor t(rows, cols, false);
  t.values() = std::move(values);
  return t;
}

Tensor Tensor::randn(common::Rng& rng, std::size_t rows, std::size_t cols, float stddev,
                     bool requires_grad) {
  Tensor t(rows, cols, requires_grad);
  for (auto& v : t.values()) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

std::size_t Tensor::rows() const {
  check_defined(*this, "rows()");
  return node_->rows;
}

std::size_t Tensor::cols() const {
  check_defined(*this, "cols()");
  return node_->cols;
}

void Tensor::set(std::size_t r, std::size_t c, float value) {
  check_defined(*this, "set()");
  CA5G_CHECK_MSG(r < node_->rows && c < node_->cols, "index out of range");
  node_->values[r * node_->cols + c] = value;
}

std::vector<float>& Tensor::values() {
  check_defined(*this, "values()");
  return node_->values;
}

const std::vector<float>& Tensor::values() const {
  check_defined(*this, "values()");
  return node_->values;
}

std::vector<float>& Tensor::grad() {
  check_defined(*this, "grad()");
  node_->ensure_grad();
  return node_->grad;
}

bool Tensor::requires_grad() const {
  check_defined(*this, "requires_grad()");
  return node_->requires_grad;
}

void Tensor::zero_grad() {
  check_defined(*this, "zero_grad()");
  node_->ensure_grad();
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
}

void Tensor::backward() {
  check_defined(*this, "backward()");
  CA5G_CHECK_MSG(node_->rows == 1 && node_->cols == 1,
                 "backward() must start from a scalar");

  // Topological order via iterative DFS over parents.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, next_parent] = stack.back();
    if (next_parent < node->parents.size()) {
      Node* parent = node->parents[next_parent].get();
      ++next_parent;
      if (parent->requires_grad && !visited.count(parent)) {
        visited.insert(parent);
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  node_->ensure_grad();
  node_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && node->requires_grad) {
      // Shape/stride agreement: a node whose storage was resized behind the
      // graph's back (e.g. via values()) would silently corrupt gradients.
      CA5G_DCHECK_EQ_MSG(node->values.size(), node->rows * node->cols,
                         "tensor storage diverged from its rows x cols shape");
      CA5G_DCHECK_EQ_MSG(node->grad.size(), node->values.size(),
                         "gradient buffer diverged from value buffer");
      node->backward_fn(*node);
    }
  }
}

Tensor Tensor::detach() const {
  check_defined(*this, "detach()");
  Tensor t(node_->rows, node_->cols, false);
  t.values() = node_->values;
  return t;
}

// ---- Ops ------------------------------------------------------------------
//
// Forward values come from the nn::infer kernels, the same code the
// compiled plans run; only operator-, operator*, scale and sum_all, which
// no plan needs, compute their own. Each op here adds the shape checks,
// the graph node and its backward rule.

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_defined(a, "matmul");
  check_defined(b, "matmul");
  CA5G_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch: " << a.rows() << "x"
                                                                 << a.cols() << " · "
                                                                 << b.rows() << "x"
                                                                 << b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  auto out = make_result(m, n, {a.node(), b.node()});
  infer::matmul_ab(a.values().data(), b.values().data(), out->values.data(), m, k, n);
  if (out->requires_grad) {
    out->backward_fn = [m, k, n](Node& self) {
      Node& pa = *self.parents[0];
      Node& pb = *self.parents[1];
      CA5G_DCHECK_EQ_MSG(pa.rows * pa.cols, m * k, "matmul lhs reshaped after forward");
      CA5G_DCHECK_EQ_MSG(pb.rows * pb.cols, k * n, "matmul rhs reshaped after forward");
      if (pa.requires_grad) {
        pa.ensure_grad();
        // dA = dC · Bᵀ
        infer::matmul_a_bt(self.grad.data(), pb.values.data(), pa.grad.data(), m, n, k);
      }
      if (pb.requires_grad) {
        pb.ensure_grad();
        // dB = Aᵀ · dC
        infer::matmul_at_b(pa.values.data(), self.grad.data(), pb.grad.data(), m, k, n);
      }
    };
  }
  return Tensor(out);
}

Tensor operator+(const Tensor& a, const Tensor& b) {
  check_defined(a, "operator+");
  check_defined(b, "operator+");
  const bool broadcast = b.rows() == 1 && a.rows() != 1 && a.cols() == b.cols();
  CA5G_CHECK_MSG(broadcast || (a.rows() == b.rows() && a.cols() == b.cols()),
                 "operator+ shape mismatch");
  const std::size_t rows = a.rows(), n = a.cols();
  auto out = copy_result(a, {a.node(), b.node()});
  if (broadcast)
    infer::add_row_bias_inplace(out->values.data(), b.values().data(), rows, n);
  else
    infer::add_inplace(out->values.data(), b.values().data(), out->values.size());
  if (out->requires_grad) {
    out->backward_fn = [broadcast, rows, n](Node& self) {
      Node& pa = *self.parents[0];
      Node& pb = *self.parents[1];
      if (pa.requires_grad) {
        pa.ensure_grad();
        add_grid(pa.grad.data(), n, self.grad.data(), n, rows, n);
      }
      if (pb.requires_grad) {
        pb.ensure_grad();
        add_grid(pb.grad.data(), broadcast ? 0 : n, self.grad.data(), n, rows, n);
      }
    };
  }
  return Tensor(out);
}

Tensor operator-(const Tensor& a, const Tensor& b) {
  check_defined(a, "operator-");
  check_defined(b, "operator-");
  CA5G_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(), "operator- shape mismatch");
  auto out = make_result(a.rows(), a.cols(), {a.node(), b.node()});
  const float* av = a.values().data();
  const float* bv = b.values().data();
  for (std::size_t i = 0; i < out->values.size(); ++i)
    out->values[i] = av[i] - bv[i];
  if (out->requires_grad) {
    out->backward_fn = [](Node& self) {
      Node& pa = *self.parents[0];
      Node& pb = *self.parents[1];
      if (pa.requires_grad) {
        pa.ensure_grad();
        for (std::size_t i = 0; i < self.grad.size(); ++i) pa.grad[i] += self.grad[i];
      }
      if (pb.requires_grad) {
        pb.ensure_grad();
        for (std::size_t i = 0; i < self.grad.size(); ++i) pb.grad[i] -= self.grad[i];
      }
    };
  }
  return Tensor(out);
}

Tensor operator*(const Tensor& a, const Tensor& b) {
  check_defined(a, "operator*");
  check_defined(b, "operator*");
  const bool broadcast = b.rows() == 1 && a.rows() != 1 && a.cols() == b.cols();
  CA5G_CHECK_MSG(broadcast || (a.rows() == b.rows() && a.cols() == b.cols()),
                 "operator* shape mismatch");
  auto out = make_result(a.rows(), a.cols(), {a.node(), b.node()});
  const float* av = a.values().data();
  const float* bv = b.values().data();
  const std::size_t rows = a.rows(), n = a.cols();
  for (std::size_t i = 0; i < out->values.size(); ++i)
    out->values[i] = av[i] * (broadcast ? bv[i % n] : bv[i]);
  if (out->requires_grad) {
    out->backward_fn = [broadcast, rows, n](Node& self) {
      Node& pa = *self.parents[0];
      Node& pb = *self.parents[1];
      const std::size_t b_stride = broadcast ? 0 : n;
      if (pa.requires_grad) {
        pa.ensure_grad();
        mul_grid(pa.grad.data(), n, self.grad.data(), pb.values.data(), b_stride, rows, n);
      }
      if (pb.requires_grad) {
        pb.ensure_grad();
        mul_grid(pb.grad.data(), b_stride, self.grad.data(), pa.values.data(), n, rows, n);
      }
    };
  }
  return Tensor(out);
}

Tensor scale(const Tensor& a, float factor) {
  check_defined(a, "scale");
  auto out = make_result(a.rows(), a.cols(), {a.node()});
  const float* av = a.values().data();
  for (std::size_t i = 0; i < out->values.size(); ++i) out->values[i] = av[i] * factor;
  if (out->requires_grad) {
    out->backward_fn = [factor](Node& self) {
      Node& pa = *self.parents[0];
      pa.ensure_grad();
      for (std::size_t i = 0; i < self.grad.size(); ++i) pa.grad[i] += self.grad[i] * factor;
    };
  }
  return Tensor(out);
}

namespace {

/// Elementwise op whose forward is the in-place infer kernel `fwd`.
template <typename Dfn>
Tensor unary_op(const Tensor& a, void (*fwd)(float*, std::size_t), Dfn dfn,
                const char* name) {
  check_defined(a, name);
  auto out = copy_result(a, {a.node()});
  fwd(out->values.data(), out->values.size());
  if (out->requires_grad) {
    out->backward_fn = [dfn](Node& self) {
      Node& pa = *self.parents[0];
      pa.ensure_grad();
      float* __restrict ga = pa.grad.data();
      const float* __restrict g = self.grad.data();
      const float* __restrict x = pa.values.data();
      const float* __restrict y = self.values.data();
      for (std::size_t i = 0; i < self.grad.size(); ++i) ga[i] += g[i] * dfn(x[i], y[i]);
    };
  }
  return Tensor(out);
}

}  // namespace

Tensor tanh_op(const Tensor& a) {
  return unary_op(
      a, infer::tanh_inplace, [](float /*x*/, float y) { return 1.0f - y * y; }, "tanh");
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, infer::sigmoid_inplace, [](float /*x*/, float y) { return y * (1.0f - y); },
      "sigmoid");
}

Tensor relu(const Tensor& a) {
  return unary_op(
      a, infer::relu_inplace, [](float x, float /*y*/) { return x > 0.0f ? 1.0f : 0.0f; },
      "relu");
}

Tensor concat_cols(std::span<const Tensor> parts) {
  CA5G_CHECK_MSG(!parts.empty(), "concat_cols of nothing");
  const std::size_t rows = parts.front().rows();
  std::size_t total_cols = 0;
  std::vector<std::shared_ptr<Node>> parents;
  std::vector<const float*> values;
  std::vector<std::size_t> widths;
  for (const auto& p : parts) {
    check_defined(p, "concat_cols");
    CA5G_CHECK_MSG(p.rows() == rows, "concat_cols row mismatch");
    total_cols += p.cols();
    parents.push_back(p.node());
    values.push_back(p.values().data());
    widths.push_back(p.cols());
  }
  auto out = make_result(rows, total_cols, std::move(parents));
  infer::concat_cols(values.data(), widths.data(), parts.size(), rows,
                     out->values.data());
  if (out->requires_grad) {
    out->backward_fn = [rows, total_cols](Node& self) {
      std::size_t grad_offset = 0;
      for (auto& parent : self.parents) {
        const std::size_t pc = parent->cols;
        if (parent->requires_grad) {
          parent->ensure_grad();
          add_grid(parent->grad.data(), pc, self.grad.data() + grad_offset, total_cols, rows,
                   pc);
        }
        grad_offset += pc;
      }
    };
  }
  return Tensor(out);
}

Tensor slice_cols(const Tensor& a, std::size_t start, std::size_t len) {
  check_defined(a, "slice_cols");
  CA5G_CHECK_MSG(start + len <= a.cols(), "slice_cols out of range");
  const std::size_t rows = a.rows();
  const std::size_t src_cols = a.cols();
  auto out = make_result(rows, len, {a.node()});
  infer::slice_cols(a.values().data(), rows, src_cols, start, len, out->values.data());
  if (out->requires_grad) {
    out->backward_fn = [rows, len, src_cols, start](Node& self) {
      Node& pa = *self.parents[0];
      pa.ensure_grad();
      add_grid(pa.grad.data() + start, src_cols, self.grad.data(), len, rows, len);
    };
  }
  return Tensor(out);
}

Tensor sum_all(const Tensor& a) {
  check_defined(a, "sum_all");
  auto out = make_result(1, 1, {a.node()});
  float acc = 0.0f;
  for (float v : a.values()) acc += v;
  out->values[0] = acc;
  if (out->requires_grad) {
    out->backward_fn = [](Node& self) {
      Node& pa = *self.parents[0];
      pa.ensure_grad();
      for (auto& g : pa.grad) g += self.grad[0];
    };
  }
  return Tensor(out);
}

Tensor mean_all(const Tensor& a) {
  check_defined(a, "mean_all");
  return scale(sum_all(a), 1.0f / static_cast<float>(a.size()));
}

Tensor mul_col_broadcast(const Tensor& a, const Tensor& col) {
  check_defined(a, "mul_col_broadcast");
  check_defined(col, "mul_col_broadcast");
  CA5G_CHECK_MSG(col.cols() == 1 && col.rows() == a.rows(),
                 "mul_col_broadcast needs a (rows x 1) column");
  const std::size_t rows = a.rows(), cols = a.cols();
  auto out = make_result(rows, cols, {a.node(), col.node()});
  infer::mul_col_broadcast(a.values().data(), col.values().data(), out->values.data(),
                           rows, cols);
  if (out->requires_grad) {
    out->backward_fn = [rows, cols](Node& self) {
      Node& pa = *self.parents[0];
      Node& pcol = *self.parents[1];
      if (pa.requires_grad) {
        pa.ensure_grad();
        for (std::size_t r = 0; r < rows; ++r)
          for (std::size_t c = 0; c < cols; ++c)
            pa.grad[r * cols + c] += self.grad[r * cols + c] * pcol.values[r];
      }
      if (pcol.requires_grad) {
        pcol.ensure_grad();
        for (std::size_t r = 0; r < rows; ++r) {
          float acc = 0.0f;
          for (std::size_t c = 0; c < cols; ++c)
            acc += self.grad[r * cols + c] * pa.values[r * cols + c];
          pcol.grad[r] += acc;
        }
      }
    };
  }
  return Tensor(out);
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  check_defined(pred, "mse_loss");
  check_defined(target, "mse_loss");
  CA5G_CHECK_MSG(pred.rows() == target.rows() && pred.cols() == target.cols(),
                 "mse_loss shape mismatch");
  const Tensor diff = pred - target;
  return mean_all(diff * diff);
}

}  // namespace ca5g::nn
