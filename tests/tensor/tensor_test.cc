#include "tensor/tensor.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "testing/grad_check.h"

namespace desalign::tensor {
namespace {

TEST(TensorTest, CreateZeroFilled) {
  auto t = Tensor::Create(3, 4);
  EXPECT_EQ(t->rows(), 3);
  EXPECT_EQ(t->cols(), 4);
  EXPECT_EQ(t->size(), 12);
  for (float v : t->data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, FromDataAdoptsValues) {
  auto t = Tensor::FromData(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t->At(0, 0), 1.0f);
  EXPECT_EQ(t->At(0, 1), 2.0f);
  EXPECT_EQ(t->At(1, 0), 3.0f);
  EXPECT_EQ(t->At(1, 1), 4.0f);
}

TEST(TensorTest, FullAndScalar) {
  auto t = Tensor::Full(2, 3, 7.5f);
  for (float v : t->data()) EXPECT_EQ(v, 7.5f);
  auto s = Tensor::Scalar(-2.0f);
  EXPECT_EQ(s->ScalarValue(), -2.0f);
}

TEST(TensorTest, GradLazilyAllocated) {
  auto t = Tensor::Create(2, 2, /*requires_grad=*/true);
  EXPECT_FALSE(t->has_grad());
  t->grad();
  EXPECT_TRUE(t->has_grad());
  EXPECT_EQ(t->grad().size(), 4u);
}

TEST(TensorTest, DetachCopiesDataWithoutGraph) {
  auto a = Tensor::FromData(1, 2, {1, 2}, /*requires_grad=*/true);
  auto b = Add(a, a);
  auto d = b->Detach();
  EXPECT_EQ(d->At(0, 0), 2.0f);
  EXPECT_FALSE(d->requires_grad());
  EXPECT_TRUE(d->parents().empty());
}

TEST(TensorTest, BackwardThroughChain) {
  auto x = Tensor::FromData(1, 1, {3.0f}, /*requires_grad=*/true);
  // y = (2x)^2 -> dy/dx = 8x = 24
  auto y = Square(Scale(x, 2.0f));
  y->Backward();
  EXPECT_FLOAT_EQ(x->grad()[0], 24.0f);
}

TEST(TensorTest, BackwardAccumulatesOverSharedSubexpression) {
  auto x = Tensor::FromData(1, 1, {2.0f}, /*requires_grad=*/true);
  // y = x*x + x  (x used twice through different paths)
  auto y = Add(Mul(x, x), x);
  y->Backward();
  EXPECT_FLOAT_EQ(x->grad()[0], 2.0f * 2.0f + 1.0f);
}

TEST(TensorTest, BackwardDiamondGraph) {
  auto x = Tensor::FromData(1, 1, {1.5f}, /*requires_grad=*/true);
  auto a = Scale(x, 2.0f);
  auto b = Scale(x, 3.0f);
  auto y = Mul(a, b);  // y = 6x^2, dy/dx = 12x = 18
  y->Backward();
  EXPECT_FLOAT_EQ(x->grad()[0], 18.0f);
}

TEST(TensorTest, BackwardReleasesEveryNonLeafGradient) {
  // `h` feeds three consumers, so its gradient must outlive all three
  // accumulations; after Backward no intermediate node holds a gradient,
  // while the leaves keep theirs — the values the gradcheck verifies.
  common::Rng rng(17);
  auto x = Tensor::Create(4, 3);  // constant input: never gets a gradient
  auto w = Tensor::Create(3, 2, /*requires_grad=*/true);
  auto b = Tensor::Create(1, 2, /*requires_grad=*/true);
  FillNormal(*x, rng);
  FillNormal(*w, rng);
  FillNormal(*b, rng);
  const auto program = [&] {
    auto h = AddRowVector(MatMul(x, w), b);
    return Sum(Add(Mul(h, Tanh(h)), Square(h)));
  };
  auto loss = program();
  loss->Backward();

  std::vector<const Tensor*> stack = {loss.get()};
  std::set<const Tensor*> seen;
  int non_leaves = 0;
  while (!stack.empty()) {
    const Tensor* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    if (!node->parents().empty()) {
      EXPECT_FALSE(node->has_grad()) << node->ToString();
      ++non_leaves;
    }
    for (const auto& p : node->parents()) stack.push_back(p.get());
  }
  EXPECT_EQ(non_leaves, 7);  // MatMul AddRowVector Tanh Mul Square Add Sum
  EXPECT_TRUE(w->has_grad());
  EXPECT_TRUE(b->has_grad());
  EXPECT_FALSE(x->has_grad());
  desalign::testing::CheckGradients({w, b}, program);
}

TEST(TensorTest, ZeroGradClears) {
  auto x = Tensor::FromData(1, 1, {1.0f}, /*requires_grad=*/true);
  auto y = Scale(x, 5.0f);
  y->Backward();
  EXPECT_FLOAT_EQ(x->grad()[0], 5.0f);
  x->ZeroGrad();
  EXPECT_FLOAT_EQ(x->grad()[0], 0.0f);
}

TEST(TensorTest, NoGradGuardSuppressesGraph) {
  auto x = Tensor::FromData(1, 1, {1.0f}, /*requires_grad=*/true);
  TensorPtr y;
  {
    NoGradGuard guard;
    EXPECT_FALSE(GradEnabled());
    y = Scale(x, 2.0f);
  }
  EXPECT_TRUE(GradEnabled());
  EXPECT_TRUE(y->parents().empty());
  EXPECT_FALSE(y->NeedsGrad());
}

TEST(TensorTest, NoGradGuardNests) {
  NoGradGuard outer;
  {
    NoGradGuard inner;
    EXPECT_FALSE(GradEnabled());
  }
  EXPECT_FALSE(GradEnabled());
}

TEST(TensorTest, FrobeniusNorm) {
  auto t = Tensor::FromData(1, 2, {3, 4});
  EXPECT_FLOAT_EQ(t->FrobeniusNorm(), 5.0f);
}

TEST(TensorTest, ToStringIncludesShape) {
  auto t = Tensor::Create(3, 7);
  EXPECT_NE(t->ToString().find("3x7"), std::string::npos);
}

TEST(TensorTest, OpsOverConstantsBuildNoGraph) {
  auto a = Tensor::FromData(1, 1, {1.0f});
  auto b = Tensor::FromData(1, 1, {2.0f});
  auto c = Add(a, b);
  EXPECT_TRUE(c->parents().empty());
}

}  // namespace
}  // namespace desalign::tensor
