// A small reverse-mode automatic-differentiation engine over 2-D float
// tensors (rows × cols). Prism5G's fusion architecture — weight-shared
// per-CC encoders, mask embedding, fusion module, per-CC heads joined by
// a sum — is a dynamic graph; building gradients automatically keeps the
// model code declarative and correct.
//
// Tensors have shared-pointer value semantics (copies alias the same
// storage, like torch). The graph is built eagerly by the ops below and
// freed when the last Tensor referencing a node is destroyed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace ca5g::nn {

namespace detail {
struct Node;
}  // namespace detail

/// Total autograd graph nodes constructed since process start (every
/// Tensor and every op result is exactly one). A relaxed atomic, always
/// on — it is one uncontended increment per node, noise next to the
/// node's own heap allocations. The inference fast path (nn/infer.hpp)
/// must leave this flat: tests assert a zero delta across fast-path
/// predictions to prove serving builds no graphs.
[[nodiscard]] std::uint64_t debug_node_allocations() noexcept;

/// 2-D tensor with optional gradient tracking.
class Tensor {
 public:
  /// Undefined tensor (use defined() to test).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  Tensor(std::size_t rows, std::size_t cols, bool requires_grad = false);

  [[nodiscard]] static Tensor zeros(std::size_t rows, std::size_t cols);
  [[nodiscard]] static Tensor constant(std::size_t rows, std::size_t cols, float value);
  /// Tensor from row-major data.
  [[nodiscard]] static Tensor from(std::vector<float> values, std::size_t rows,
                                   std::size_t cols);
  /// Gaussian-initialized parameter tensor.
  [[nodiscard]] static Tensor randn(common::Rng& rng, std::size_t rows, std::size_t cols,
                                    float stddev, bool requires_grad = true);

  [[nodiscard]] bool defined() const noexcept { return node_ != nullptr; }
  [[nodiscard]] std::size_t rows() const;
  [[nodiscard]] std::size_t cols() const;
  [[nodiscard]] std::size_t size() const { return rows() * cols(); }

  /// Mutable access — only sensible on leaf tensors before use in a graph.
  void set(std::size_t r, std::size_t c, float value);

  [[nodiscard]] std::vector<float>& values();
  [[nodiscard]] const std::vector<float>& values() const;
  [[nodiscard]] std::vector<float>& grad();

  [[nodiscard]] bool requires_grad() const;
  void zero_grad();

  /// Backpropagate from this scalar (1×1) tensor through the graph.
  void backward();

  /// Detached copy: same values, no graph history, no gradient tracking.
  [[nodiscard]] Tensor detach() const;

  /// Internal node accessor for op implementations.
  [[nodiscard]] const std::shared_ptr<detail::Node>& node() const noexcept { return node_; }
  explicit Tensor(std::shared_ptr<detail::Node> node) : node_(std::move(node)) {}

 private:
  std::shared_ptr<detail::Node> node_;
};

// ---- Operations (all differentiable) -------------------------------------

/// Matrix product: (m×k)·(k×n) → m×n.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// Elementwise sum; `b` may also be a 1×n row vector broadcast over rows.
[[nodiscard]] Tensor operator+(const Tensor& a, const Tensor& b);

/// Elementwise difference (same-shape only).
[[nodiscard]] Tensor operator-(const Tensor& a, const Tensor& b);

/// Hadamard product; `b` may be a 1×n row broadcast.
[[nodiscard]] Tensor operator*(const Tensor& a, const Tensor& b);

/// Multiply by a compile-time constant scalar.
[[nodiscard]] Tensor scale(const Tensor& a, float factor);

[[nodiscard]] Tensor tanh_op(const Tensor& a);
[[nodiscard]] Tensor sigmoid(const Tensor& a);
[[nodiscard]] Tensor relu(const Tensor& a);

/// Horizontal concatenation (equal row counts).
[[nodiscard]] Tensor concat_cols(std::span<const Tensor> parts);

/// Column slice [start, start+len).
[[nodiscard]] Tensor slice_cols(const Tensor& a, std::size_t start, std::size_t len);

/// Sum of all elements → 1×1.
[[nodiscard]] Tensor sum_all(const Tensor& a);

/// Mean of all elements → 1×1.
[[nodiscard]] Tensor mean_all(const Tensor& a);

/// Mean squared error between prediction and a constant target → 1×1.
[[nodiscard]] Tensor mse_loss(const Tensor& pred, const Tensor& target);

/// Multiply each row of `a` by the matching scalar of a (rows × 1)
/// column vector.
[[nodiscard]] Tensor mul_col_broadcast(const Tensor& a, const Tensor& col);

}  // namespace ca5g::nn
