#ifndef DESALIGN_TENSOR_TENSOR_H_
#define DESALIGN_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace desalign::tensor {

class Tensor;
using TensorPtr = std::shared_ptr<Tensor>;

/// Dense row-major float32 matrix that doubles as a node in a reverse-mode
/// autograd graph. All model math in this library (encoders, attention,
/// losses, Dirichlet-energy penalties) is expressed over Tensor; gradients
/// are obtained by calling Backward() on a scalar (1x1) loss node.
///
/// Ownership model: each node holds shared_ptr references to its parents
/// (`parents()`), which keeps the upstream graph alive for backward; the
/// backward closure captures only raw pointers, so there are no reference
/// cycles and a training-step graph is freed when the loss node goes out of
/// scope.
class Tensor {
 public:
  /// Creates a zero-filled rows x cols tensor.
  static TensorPtr Create(int64_t rows, int64_t cols,
                          bool requires_grad = false);

  /// Creates a tensor whose data contents are unspecified (possibly stale
  /// bytes from the buffer pool). Reserved for ops that overwrite every
  /// element before any read — never hand one to code that accumulates.
  static TensorPtr CreateUninitialized(int64_t rows, int64_t cols,
                                       bool requires_grad = false);

  /// Creates a tensor adopting `data` (size must equal rows*cols). The
  /// vector is moved in as is; no pool buffer is involved.
  static TensorPtr FromData(int64_t rows, int64_t cols,
                            std::vector<float> data,
                            bool requires_grad = false);

  /// All-zeros tensor.
  static TensorPtr Zeros(int64_t rows, int64_t cols,
                         bool requires_grad = false);

  /// All-`value` tensor.
  static TensorPtr Full(int64_t rows, int64_t cols, float value,
                        bool requires_grad = false);

  /// 1x1 scalar tensor.
  static TensorPtr Scalar(float value, bool requires_grad = false);

  Tensor(int64_t rows, int64_t cols, bool requires_grad);
  Tensor(int64_t rows, int64_t cols, bool requires_grad, bool zero_init);

  /// Returns the data and gradient buffers to the global BufferPool.
  ~Tensor();

  Tensor(const Tensor&) = delete;
  Tensor& operator=(const Tensor&) = delete;

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }

  float At(int64_t r, int64_t c) const { return data_[r * cols_ + c]; }
  float& At(int64_t r, int64_t c) { return data_[r * cols_ + c]; }

  const std::vector<float>& data() const { return data_; }
  std::vector<float>& data() { return data_; }

  /// Gradient buffer; lazily allocated (zero-filled) on first access.
  std::vector<float>& grad();
  bool has_grad() const { return !grad_.empty(); }

  bool requires_grad() const { return requires_grad_; }
  void set_requires_grad(bool v) { requires_grad_ = v; }

  /// True when this node participates in autograd (it is a trainable leaf
  /// or was produced by an op over such nodes).
  bool NeedsGrad() const { return requires_grad_ || !parents_.empty(); }

  const std::vector<TensorPtr>& parents() const { return parents_; }

  /// Wires this node into the autograd graph. Called by ops.
  void SetBackward(std::vector<TensorPtr> parents,
                   std::function<void()> backward_fn);

  /// Runs reverse-mode differentiation from this node, which must be a
  /// scalar (1x1). Accumulates into the `grad()` buffers of all reachable
  /// leaves (`requires_grad()` nodes). Each non-leaf gradient is released
  /// to the pool as soon as its node's backward closure has run, so after
  /// Backward every non-leaf node — this one included — reports
  /// `has_grad() == false`; call Backward once per graph.
  void Backward();

  /// Clears the gradient buffer (keeps allocation).
  void ZeroGrad();

  /// Returns a gradient-detached copy of the data (fresh leaf node).
  TensorPtr Detach() const;

  /// Scalar value accessor; requires a 1x1 tensor.
  float ScalarValue() const;

  /// Frobenius (entry-wise l2) norm of the data.
  float FrobeniusNorm() const;

  /// Debug string: "Tensor(RxC)" plus contents for small tensors.
  std::string ToString() const;

 private:
  Tensor(int64_t rows, int64_t cols, std::vector<float> data,
         bool requires_grad);

  int64_t rows_;
  int64_t cols_;
  bool requires_grad_;
  std::vector<float> data_;
  std::vector<float> grad_;
  std::vector<TensorPtr> parents_;
  std::function<void()> backward_fn_;
};

/// RAII guard disabling autograd graph construction within its scope, used
/// in evaluation and semantic propagation (which is learning-free).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// True when ops should record backward closures.
bool GradEnabled();

}  // namespace desalign::tensor

#endif  // DESALIGN_TENSOR_TENSOR_H_
