#include "tensor/tensor.h"

#include <cmath>
#include <sstream>
#include <unordered_set>

#include "common/check.h"
#include "tensor/kernels/buffer_pool.h"

namespace desalign::tensor {

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool GradEnabled() { return g_grad_enabled; }

Tensor::Tensor(int64_t rows, int64_t cols, bool requires_grad)
    : Tensor(rows, cols, requires_grad, /*zero_init=*/true) {}

Tensor::Tensor(int64_t rows, int64_t cols, bool requires_grad,
               bool zero_init)
    : rows_(rows), cols_(cols), requires_grad_(requires_grad) {
  DESALIGN_CHECK_GT(rows, 0);
  DESALIGN_CHECK_GT(cols, 0);
  data_ = kernels::BufferPool::Global().Acquire(
      static_cast<size_t>(rows * cols), zero_init);
}

Tensor::~Tensor() {
  auto& pool = kernels::BufferPool::Global();
  pool.Release(std::move(data_));
  pool.Release(std::move(grad_));
}

TensorPtr Tensor::Create(int64_t rows, int64_t cols, bool requires_grad) {
  return std::make_shared<Tensor>(rows, cols, requires_grad);
}

TensorPtr Tensor::CreateUninitialized(int64_t rows, int64_t cols,
                                      bool requires_grad) {
  return std::make_shared<Tensor>(rows, cols, requires_grad,
                                  /*zero_init=*/false);
}

Tensor::Tensor(int64_t rows, int64_t cols, std::vector<float> data,
               bool requires_grad)
    : rows_(rows),
      cols_(cols),
      requires_grad_(requires_grad),
      data_(std::move(data)) {
  DESALIGN_CHECK_GT(rows, 0);
  DESALIGN_CHECK_GT(cols, 0);
  DESALIGN_CHECK_EQ(static_cast<int64_t>(data_.size()), rows * cols);
}

TensorPtr Tensor::FromData(int64_t rows, int64_t cols,
                           std::vector<float> data, bool requires_grad) {
  // Adopted directly: the pool is neither asked for a buffer nor handed
  // one, and on destruction it frees the vector unless its capacity is
  // exactly a bucket size.
  return std::shared_ptr<Tensor>(new Tensor(rows, cols, std::move(data),
                                            requires_grad));
}

TensorPtr Tensor::Zeros(int64_t rows, int64_t cols, bool requires_grad) {
  return Create(rows, cols, requires_grad);
}

TensorPtr Tensor::Full(int64_t rows, int64_t cols, float value,
                       bool requires_grad) {
  auto t = Create(rows, cols, requires_grad);
  for (auto& v : t->data_) v = value;
  return t;
}

TensorPtr Tensor::Scalar(float value, bool requires_grad) {
  return Full(1, 1, value, requires_grad);
}

std::vector<float>& Tensor::grad() {
  if (grad_.empty()) {
    grad_ = kernels::BufferPool::Global().Acquire(data_.size(),
                                                  /*zero=*/true);
  }
  return grad_;
}

void Tensor::SetBackward(std::vector<TensorPtr> parents,
                         std::function<void()> backward_fn) {
  if (!g_grad_enabled) return;
  bool any_needs_grad = false;
  for (const auto& p : parents) {
    if (p->NeedsGrad()) {
      any_needs_grad = true;
      break;
    }
  }
  if (!any_needs_grad) return;
  parents_ = std::move(parents);
  backward_fn_ = std::move(backward_fn);
}

void Tensor::Backward() {
  DESALIGN_CHECK_MSG(rows_ == 1 && cols_ == 1,
                     "Backward() must start from a scalar loss");
  // Topological order via iterative post-order DFS.
  std::vector<Tensor*> topo;
  std::unordered_set<Tensor*> visited;
  std::vector<std::pair<Tensor*, size_t>> stack;
  stack.emplace_back(this, 0);
  visited.insert(this);
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents_.size()) {
      Tensor* child = node->parents_[next_child].get();
      ++next_child;
      if (visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }
  grad().assign(1, 1.0f);
  auto& pool = kernels::BufferPool::Global();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Tensor* node = *it;
    if (node->backward_fn_ && node->has_grad()) {
      node->backward_fn_();
    }
    // In reverse topological order every consumer of `node` has already
    // accumulated into its gradient, and its own closure was the last
    // reader, so a non-leaf gradient can go back to the pool now.
    if (!node->requires_grad_) pool.Release(std::move(node->grad_));
  }
}

void Tensor::ZeroGrad() {
  if (!grad_.empty()) grad_.assign(data_.size(), 0.0f);
}

TensorPtr Tensor::Detach() const {
  auto t = Create(rows_, cols_, /*requires_grad=*/false);
  t->data_ = data_;
  return t;
}

float Tensor::ScalarValue() const {
  DESALIGN_CHECK(rows_ == 1 && cols_ == 1);
  return data_[0];
}

float Tensor::FrobeniusNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

std::string Tensor::ToString() const {
  std::ostringstream os;
  os << "Tensor(" << rows_ << "x" << cols_ << ")";
  if (size() <= 16) {
    os << " [";
    for (int64_t i = 0; i < size(); ++i) {
      if (i) os << ", ";
      os << data_[i];
    }
    os << "]";
  }
  return os.str();
}

}  // namespace desalign::tensor
