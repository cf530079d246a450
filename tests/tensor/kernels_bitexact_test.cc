// Bit-exactness suite for the kernel layer: every kernel must produce
// byte-identical output to the serial scalar reference
// (testing/kernel_reference.cc — the pre-kernel-layer ops.cc loops) under
// every ISA level the CPU supports and under multi-chunk parallel partitioning
// (4 threads with the grain forced to 1 so even 1x1 shapes split). Shapes
// deliberately include empty, single-row, single-column and 63/65-wide
// cases to hit vector-width remainders on both sides.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/kernels/elementwise.h"
#include "tensor/kernels/gemm.h"
#include "tensor/kernels/rowwise.h"
#include "testing/kernel_reference.h"

namespace desalign::tensor::kernels {
namespace {

struct Shape {
  int64_t n;
  int64_t c;
};

// 63/65 columns straddle the 8-lane AVX2 width; 129 forces a remainder
// after 16 full lanes; {0, x} and {1, 1} are the degenerate floors.
const Shape kShapes[] = {{0, 17}, {1, 1},  {1, 63},  {2, 65},
                         {7, 129}, {33, 64}, {128, 63}, {65, 65}};

std::vector<float> RandomVec(common::Rng& rng, size_t n, float lo = -2.0f,
                             float hi = 2.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.UniformF(lo, hi);
  return v;
}

// Runs `kernel` under every ISA x partitioning configuration and asserts the
// bytes written into the output buffer match `ref` exactly. `base` seeds the
// output buffer so accumulating kernels are checked against a nonzero
// starting point.
void ExpectConfigsBitExact(const std::function<void(float*)>& kernel,
                           const std::function<void(float*)>& ref,
                           const std::vector<float>& base) {
  std::vector<float> expected = base;
  ref(expected.data());

  struct Config {
    IsaLevel isa;
    int threads;
  };
  std::vector<Config> configs = {{IsaLevel::kScalar, 1},
                                 {IsaLevel::kScalar, 4}};
  if (CpuSupportsAvx2()) {
    configs.push_back({IsaLevel::kAvx2, 1});
    configs.push_back({IsaLevel::kAvx2, 4});
  }
  for (const auto& config : configs) {
    common::ThreadPool::SetGlobalThreadCount(config.threads);
    // Grain 1 makes even tiny shapes span multiple chunks, exercising the
    // partition boundaries that a production grain would never hit here.
    SetForcedGrainForTesting(config.threads > 1 ? 1 : 0);
    SetIsaOverride(config.isa);
    std::vector<float> got = base;
    kernel(got.data());
    SetIsaOverride(IsaLevel::kScalar, /*has_override=*/false);
    SetForcedGrainForTesting(0);
    common::ThreadPool::SetGlobalThreadCount(0);
    ASSERT_EQ(got.size(), expected.size());
    // memcmp's pointer arguments are declared nonnull; an empty vector's
    // data() may be null, so the empty-shape cases must not reach it.
    EXPECT_TRUE(got.empty() ||
                std::memcmp(got.data(), expected.data(),
                            got.size() * sizeof(float)) == 0)
        << IsaName(config.isa) << " @" << config.threads
        << " threads diverged from the scalar reference";
  }
}

TEST(KernelsBitExactTest, BinaryElementwise) {
  common::Rng rng(101);
  for (const auto& s : kShapes) {
    const size_t n = static_cast<size_t>(s.n * s.c);
    auto a = RandomVec(rng, n);
    auto b = RandomVec(rng, n);
    for (auto& v : b) v = 1.5f + std::fabs(v);  // Div-safe denominator
    const std::vector<float> base(n, 0.0f);
    ExpectConfigsBitExact([&](float* y) { Add(a.data(), b.data(), y, n); },
                          [&](float* y) {
                            reference::Add(a.data(), b.data(), y, n);
                          },
                          base);
    ExpectConfigsBitExact([&](float* y) { Sub(a.data(), b.data(), y, n); },
                          [&](float* y) {
                            reference::Sub(a.data(), b.data(), y, n);
                          },
                          base);
    ExpectConfigsBitExact([&](float* y) { Mul(a.data(), b.data(), y, n); },
                          [&](float* y) {
                            reference::Mul(a.data(), b.data(), y, n);
                          },
                          base);
    ExpectConfigsBitExact([&](float* y) { Div(a.data(), b.data(), y, n); },
                          [&](float* y) {
                            reference::Div(a.data(), b.data(), y, n);
                          },
                          base);
  }
}

TEST(KernelsBitExactTest, ScalarAndUnaryElementwise) {
  common::Rng rng(102);
  for (const auto& s : kShapes) {
    const size_t n = static_cast<size_t>(s.n * s.c);
    auto x = RandomVec(rng, n);
    auto pos = RandomVec(rng, n, 0.05f, 3.0f);
    const std::vector<float> base(n, 0.0f);
    ExpectConfigsBitExact(
        [&](float* y) { Scale(x.data(), 1.7f, y, n); },
        [&](float* y) { reference::Scale(x.data(), 1.7f, y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { MulScalar(x.data(), -0.3f, y, n); },
        [&](float* y) { reference::MulScalar(x.data(), -0.3f, y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { AddScalar(x.data(), 0.9f, y, n); },
        [&](float* y) { reference::AddScalar(x.data(), 0.9f, y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { Relu(x.data(), y, n); },
        [&](float* y) { reference::Relu(x.data(), y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { LeakyRelu(x.data(), 0.2f, y, n); },
        [&](float* y) { reference::LeakyRelu(x.data(), 0.2f, y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { Sigmoid(x.data(), y, n); },
        [&](float* y) { reference::Sigmoid(x.data(), y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { Tanh(x.data(), y, n); },
        [&](float* y) { reference::Tanh(x.data(), y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { Exp(x.data(), y, n); },
        [&](float* y) { reference::Exp(x.data(), y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { LogEps(pos.data(), 1e-12f, y, n); },
        [&](float* y) { reference::LogEps(pos.data(), 1e-12f, y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { Square(x.data(), y, n); },
        [&](float* y) { reference::Square(x.data(), y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { Abs(x.data(), y, n); },
        [&](float* y) { reference::Abs(x.data(), y, n); }, base);
    ExpectConfigsBitExact(
        [&](float* y) { Clip(x.data(), -0.5f, 0.8f, y, n); },
        [&](float* y) { reference::Clip(x.data(), -0.5f, 0.8f, y, n); },
        base);
  }
}

TEST(KernelsBitExactTest, AccumulatingElementwise) {
  common::Rng rng(103);
  for (const auto& s : kShapes) {
    const size_t n = static_cast<size_t>(s.n * s.c);
    auto g = RandomVec(rng, n);
    auto x = RandomVec(rng, n);
    auto b = RandomVec(rng, n);
    for (auto& v : b) v = 1.5f + std::fabs(v);
    auto base = RandomVec(rng, n);  // accumulate onto nonzero contents
    ExpectConfigsBitExact(
        [&](float* out) { Accumulate(g.data(), out, n); },
        [&](float* out) { reference::Accumulate(g.data(), out, n); }, base);
    ExpectConfigsBitExact(
        [&](float* out) { AccumulateNeg(g.data(), out, n); },
        [&](float* out) { reference::AccumulateNeg(g.data(), out, n); },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { Axpy(0.7f, x.data(), out, n); },
        [&](float* out) { reference::Axpy(0.7f, x.data(), out, n); }, base);
    ExpectConfigsBitExact(
        [&](float* out) { AccumulateConstant(0.45f, out, n); },
        [&](float* out) { reference::AccumulateConstant(0.45f, out, n); },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { AccumulateScaled(g.data(), -1.2f, out, n); },
        [&](float* out) {
          reference::AccumulateScaled(g.data(), -1.2f, out, n);
        },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { AccumulateProduct(g.data(), x.data(), out, n); },
        [&](float* out) {
          reference::AccumulateProduct(g.data(), x.data(), out, n);
        },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { AccumulateQuotient(g.data(), b.data(), out, n); },
        [&](float* out) {
          reference::AccumulateQuotient(g.data(), b.data(), out, n);
        },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { DivGradB(g.data(), x.data(), b.data(), out, n); },
        [&](float* out) {
          reference::DivGradB(g.data(), x.data(), b.data(), out, n);
        },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { ReluGrad(g.data(), x.data(), out, n); },
        [&](float* out) { reference::ReluGrad(g.data(), x.data(), out, n); },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { LeakyReluGrad(g.data(), x.data(), 0.2f, out, n); },
        [&](float* out) {
          reference::LeakyReluGrad(g.data(), x.data(), 0.2f, out, n);
        },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { SigmoidGrad(g.data(), x.data(), out, n); },
        [&](float* out) {
          reference::SigmoidGrad(g.data(), x.data(), out, n);
        },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { TanhGrad(g.data(), x.data(), out, n); },
        [&](float* out) { reference::TanhGrad(g.data(), x.data(), out, n); },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { LogEpsGrad(g.data(), b.data(), 1e-12f, out, n); },
        [&](float* out) {
          reference::LogEpsGrad(g.data(), b.data(), 1e-12f, out, n);
        },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { SquareGrad(g.data(), x.data(), out, n); },
        [&](float* out) {
          reference::SquareGrad(g.data(), x.data(), out, n);
        },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { AbsGrad(g.data(), x.data(), out, n); },
        [&](float* out) { reference::AbsGrad(g.data(), x.data(), out, n); },
        base);
    ExpectConfigsBitExact(
        [&](float* out) { ClipGrad(g.data(), x.data(), -0.5f, 0.8f, out, n); },
        [&](float* out) {
          reference::ClipGrad(g.data(), x.data(), -0.5f, 0.8f, out, n);
        },
        base);
  }
}

TEST(KernelsBitExactTest, Broadcasts) {
  common::Rng rng(104);
  for (const auto& s : kShapes) {
    const int64_t n = s.n;
    const int64_t c = s.c;
    auto a = RandomVec(rng, static_cast<size_t>(n * c));
    auto g = RandomVec(rng, static_cast<size_t>(n * c));
    auto row = RandomVec(rng, static_cast<size_t>(c));
    auto col = RandomVec(rng, static_cast<size_t>(n));
    const std::vector<float> zero_nc(static_cast<size_t>(n * c), 0.0f);
    auto base_nc = RandomVec(rng, static_cast<size_t>(n * c));
    auto base_c = RandomVec(rng, static_cast<size_t>(c));
    auto base_n = RandomVec(rng, static_cast<size_t>(n));
    ExpectConfigsBitExact(
        [&](float* y) { AddRowBroadcast(a.data(), row.data(), y, n, c); },
        [&](float* y) {
          reference::AddRowBroadcast(a.data(), row.data(), y, n, c);
        },
        zero_nc);
    ExpectConfigsBitExact(
        [&](float* y) { MulRowBroadcast(a.data(), row.data(), y, n, c); },
        [&](float* y) {
          reference::MulRowBroadcast(a.data(), row.data(), y, n, c);
        },
        zero_nc);
    ExpectConfigsBitExact(
        [&](float* out) {
          MulRowBroadcastAcc(g.data(), row.data(), out, n, c);
        },
        [&](float* out) {
          reference::MulRowBroadcastAcc(g.data(), row.data(), out, n, c);
        },
        base_nc);
    ExpectConfigsBitExact(
        [&](float* y) { RowScale(a.data(), col.data(), y, n, c); },
        [&](float* y) { reference::RowScale(a.data(), col.data(), y, n, c); },
        zero_nc);
    ExpectConfigsBitExact(
        [&](float* out) { RowScaleAcc(g.data(), col.data(), out, n, c); },
        [&](float* out) {
          reference::RowScaleAcc(g.data(), col.data(), out, n, c);
        },
        base_nc);
    ExpectConfigsBitExact(
        [&](float* out) { RowDotAcc(g.data(), a.data(), out, n, c); },
        [&](float* out) {
          reference::RowDotAcc(g.data(), a.data(), out, n, c);
        },
        base_n);
    ExpectConfigsBitExact(
        [&](float* out) { AddColBroadcastAcc(col.data(), out, n, c); },
        [&](float* out) {
          reference::AddColBroadcastAcc(col.data(), out, n, c);
        },
        base_nc);
    ExpectConfigsBitExact(
        [&](float* out) { ColumnAcc(g.data(), out, n, c); },
        [&](float* out) { reference::ColumnAcc(g.data(), out, n, c); },
        base_c);
    ExpectConfigsBitExact(
        [&](float* out) { ColumnAccMul(g.data(), a.data(), out, n, c); },
        [&](float* out) {
          reference::ColumnAccMul(g.data(), a.data(), out, n, c);
        },
        base_c);
  }
}

TEST(KernelsBitExactTest, SoftmaxAndNormalization) {
  common::Rng rng(105);
  for (const auto& s : kShapes) {
    const int64_t n = s.n;
    const int64_t c = s.c;
    const size_t nc = static_cast<size_t>(n * c);
    auto x = RandomVec(rng, nc);
    auto g = RandomVec(rng, nc);
    auto gamma = RandomVec(rng, static_cast<size_t>(c), 0.5f, 1.5f);
    auto beta = RandomVec(rng, static_cast<size_t>(c));
    const std::vector<float> zero_nc(nc, 0.0f);
    auto base_nc = RandomVec(rng, nc);

    ExpectConfigsBitExact(
        [&](float* y) { RowSoftmax(x.data(), y, n, c); },
        [&](float* y) { reference::RowSoftmax(x.data(), y, n, c); },
        zero_nc);
    ExpectConfigsBitExact(
        [&](float* y) { RowLogSoftmax(x.data(), y, n, c); },
        [&](float* y) { reference::RowLogSoftmax(x.data(), y, n, c); },
        zero_nc);

    std::vector<float> soft(nc);
    std::vector<float> logsoft(nc);
    reference::RowSoftmax(x.data(), soft.data(), n, c);
    reference::RowLogSoftmax(x.data(), logsoft.data(), n, c);
    ExpectConfigsBitExact(
        [&](float* out) { RowSoftmaxGrad(soft.data(), g.data(), out, n, c); },
        [&](float* out) {
          reference::RowSoftmaxGrad(soft.data(), g.data(), out, n, c);
        },
        base_nc);
    ExpectConfigsBitExact(
        [&](float* out) {
          RowLogSoftmaxGrad(logsoft.data(), g.data(), out, n, c);
        },
        [&](float* out) {
          reference::RowLogSoftmaxGrad(logsoft.data(), g.data(), out, n, c);
        },
        base_nc);

    // RowL2Normalize writes y (n*c) and norms (n) — check both by packing
    // them into one output buffer.
    ExpectConfigsBitExact(
        [&](float* out) {
          RowL2Normalize(x.data(), 1e-12f, out, out + n * c, n, c);
        },
        [&](float* out) {
          reference::RowL2Normalize(x.data(), 1e-12f, out, out + n * c, n,
                                    c);
        },
        std::vector<float>(nc + static_cast<size_t>(n), 0.0f));
    std::vector<float> l2y(nc);
    std::vector<float> norms(static_cast<size_t>(n));
    reference::RowL2Normalize(x.data(), 1e-12f, l2y.data(), norms.data(), n,
                              c);
    ExpectConfigsBitExact(
        [&](float* out) {
          RowL2NormalizeGrad(l2y.data(), g.data(), norms.data(), out, n, c);
        },
        [&](float* out) {
          reference::RowL2NormalizeGrad(l2y.data(), g.data(), norms.data(),
                                        out, n, c);
        },
        base_nc);

    // LayerNormForward writes y, xhat (both n*c) and inv_sigma (n).
    ExpectConfigsBitExact(
        [&](float* out) {
          LayerNormForward(x.data(), gamma.data(), beta.data(), 1e-5f, out,
                           out + n * c, out + 2 * n * c, n, c);
        },
        [&](float* out) {
          reference::LayerNormForward(x.data(), gamma.data(), beta.data(),
                                      1e-5f, out, out + n * c,
                                      out + 2 * n * c, n, c);
        },
        std::vector<float>(2 * nc + static_cast<size_t>(n), 0.0f));
    std::vector<float> lny(nc);
    std::vector<float> xhat(nc);
    std::vector<float> inv_sigma(static_cast<size_t>(n));
    reference::LayerNormForward(x.data(), gamma.data(), beta.data(), 1e-5f,
                                lny.data(), xhat.data(), inv_sigma.data(), n,
                                c);
    ExpectConfigsBitExact(
        [&](float* out) {
          LayerNormGradX(g.data(), gamma.data(), xhat.data(),
                         inv_sigma.data(), out, n, c);
        },
        [&](float* out) {
          reference::LayerNormGradX(g.data(), gamma.data(), xhat.data(),
                                    inv_sigma.data(), out, n, c);
        },
        base_nc);
  }
}

TEST(KernelsBitExactTest, GatherScatterTranspose) {
  common::Rng rng(106);
  for (const auto& s : kShapes) {
    const int64_t n = std::max<int64_t>(s.n, 1);  // gather source rows
    const int64_t c = s.c;
    const int64_t e = s.n * 2 + 1;  // more indices than rows → duplicates
    auto a = RandomVec(rng, static_cast<size_t>(n * c));
    auto g = RandomVec(rng, static_cast<size_t>(e * c));
    std::vector<int64_t> indices(static_cast<size_t>(e));
    for (auto& i : indices) i = rng.UniformInt(n);
    auto base_nc = RandomVec(rng, static_cast<size_t>(n * c));
    auto base_ec = RandomVec(rng, static_cast<size_t>(e * c));
    ExpectConfigsBitExact(
        [&](float* y) { GatherRows(a.data(), indices.data(), y, e, c); },
        [&](float* y) {
          reference::GatherRows(a.data(), indices.data(), y, e, c);
        },
        std::vector<float>(static_cast<size_t>(e * c), 0.0f));
    // Duplicate indices: the column-partitioned scatter must reproduce the
    // serial ascending-i accumulation order per column exactly.
    ExpectConfigsBitExact(
        [&](float* out) {
          ScatterAddRows(g.data(), indices.data(), out, e, c);
        },
        [&](float* out) {
          reference::ScatterAddRows(g.data(), indices.data(), out, e, c);
        },
        base_nc);
    ExpectConfigsBitExact(
        [&](float* out) {
          GatherRowsAcc(a.data(), indices.data(), out, e, c);
        },
        [&](float* out) {
          reference::GatherRowsAcc(a.data(), indices.data(), out, e, c);
        },
        base_ec);

    const int64_t m = s.n;
    ExpectConfigsBitExact(
        [&](float* y) { Transpose(a.data(), y, m, c); },
        [&](float* y) { reference::Transpose(a.data(), y, m, c); },
        std::vector<float>(static_cast<size_t>(m * c), 0.0f));
    auto gt = RandomVec(rng, static_cast<size_t>(m * c));
    auto base_mc = RandomVec(rng, static_cast<size_t>(m * c));
    ExpectConfigsBitExact(
        [&](float* out) { TransposeAcc(gt.data(), out, m, c); },
        [&](float* out) { reference::TransposeAcc(gt.data(), out, m, c); },
        base_mc);
  }
}

TEST(KernelsBitExactTest, StridedCopies) {
  // reference.cc has no strided variants (the old ops.cc inlined these
  // loops), so the expected values are computed with local serial loops.
  common::Rng rng(107);
  const int64_t n = 9;
  const int64_t stride = 13;
  const int64_t c = 5;
  auto src = RandomVec(rng, static_cast<size_t>(n * stride));
  auto dense = RandomVec(rng, static_cast<size_t>(n * c));

  std::vector<float> expected_dense(static_cast<size_t>(n * c), 0.0f);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) {
      expected_dense[r * c + j] = src[r * stride + j];
    }
  }
  ExpectConfigsBitExact(
      [&](float* dst) {
        CopyStridedToDense(src.data(), stride, dst, n, c);
      },
      [&](float* dst) {
        std::memcpy(dst, expected_dense.data(),
                    expected_dense.size() * sizeof(float));
      },
      std::vector<float>(static_cast<size_t>(n * c), 0.0f));

  auto base_strided = RandomVec(rng, static_cast<size_t>(n * stride));
  std::vector<float> expected_strided = base_strided;
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) {
      expected_strided[r * stride + j] = dense[r * c + j];
    }
  }
  ExpectConfigsBitExact(
      [&](float* dst) { CopyDenseToStrided(dense.data(), dst, stride, n, c); },
      [&](float* dst) {
        std::memcpy(dst, expected_strided.data(),
                    expected_strided.size() * sizeof(float));
      },
      base_strided);

  auto base_acc = RandomVec(rng, static_cast<size_t>(n * c));
  std::vector<float> expected_acc = base_acc;
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) {
      expected_acc[r * c + j] += src[r * stride + j];
    }
  }
  ExpectConfigsBitExact(
      [&](float* out) { AccStridedToDense(src.data(), stride, out, n, c); },
      [&](float* out) {
        std::memcpy(out, expected_acc.data(),
                    expected_acc.size() * sizeof(float));
      },
      base_acc);

  auto base_acc2 = RandomVec(rng, static_cast<size_t>(n * stride));
  std::vector<float> expected_acc2 = base_acc2;
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) {
      expected_acc2[r * stride + j] += dense[r * c + j];
    }
  }
  ExpectConfigsBitExact(
      [&](float* out) { AccDenseToStrided(dense.data(), out, stride, n, c); },
      [&](float* out) {
        std::memcpy(out, expected_acc2.data(),
                    expected_acc2.size() * sizeof(float));
      },
      base_acc2);
}

// The coarse quantizer's distance kernel against the per-column loop it
// replaced. Columns j % 3 == 1 each carry one special value (±0.0, a
// denormal, NaN or ±inf); the rest stay finite, so a split, reordered or
// fused sum changes their bytes. x carries ±0.0 and a denormal, and is run
// without NaN or inf, then with a NaN, +inf and -inf in one coordinate,
// which makes every sum non-finite (inf - inf gives NaN).
TEST(KernelsBitExactTest, SqDistColumns) {
  common::Rng rng(109);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,   -0.0f, 1e-40f, -3e-39f,
                            std::nanf(""), inf,   -inf};
  constexpr int64_t kNumSpecials = sizeof(specials) / sizeof(specials[0]);
  for (const int64_t k : {1, 7, 8, 9, 33, 142}) {
    for (const int64_t dim : {1, 5, 128}) {
      auto cols = RandomVec(rng, static_cast<size_t>(dim * k));
      for (int64_t j = 1; j < k; j += 3) {
        cols[static_cast<size_t>((j % dim) * k + j)] =
            specials[(j / 3) % kNumSpecials];
      }
      auto x = RandomVec(rng, static_cast<size_t>(dim));
      x[0] = -0.0f;
      x[static_cast<size_t>(dim / 2)] = 2e-39f;
      x[static_cast<size_t>(dim - 1)] = 0.0f;
      for (const float poison : {1.0f, std::nanf(""), inf, -inf}) {
        if (poison != 1.0f) x[static_cast<size_t>(dim / 3)] = poison;
        ExpectConfigsBitExact(
            [&](float* out) {
              SqDistColumns(x.data(), cols.data(), out, dim, k);
            },
            [&](float* out) {
              reference::SqDistColumns(x.data(), cols.data(), out, dim, k);
            },
            RandomVec(rng, static_cast<size_t>(k)));
      }
    }
  }
}

// Checks MatMul, MatMulGradA and MatMulGradB on one (m, k, n). Exact zeros
// and negative zeros are planted in a (the operand whose zero terms the
// forward and grad_b skip) and in g (whose zero terms grad_a must keep),
// and -0.0f in every starting output, so a skipped or spurious +0.0 term
// flips bytes. The forward's output starts nonzero too: it must overwrite.
void ExpectMatMulBitExact(int64_t m, int64_t k, int64_t n, common::Rng& rng) {
  auto a = RandomVec(rng, static_cast<size_t>(m * k));
  const auto b = RandomVec(rng, static_cast<size_t>(k * n));
  auto g = RandomVec(rng, static_cast<size_t>(m * n));
  for (auto* v : {&a, &g}) {
    for (size_t i = 0; i < v->size(); i += 5) (*v)[i] = 0.0f;
    for (size_t i = 3; i < v->size(); i += 11) (*v)[i] = -0.0f;
  }
  const auto base = [&rng](int64_t len) {
    auto v = RandomVec(rng, static_cast<size_t>(len));
    for (size_t i = 1; i < v.size(); i += 7) v[i] = -0.0f;
    return v;
  };
  ExpectConfigsBitExact(
      [&](float* y) { MatMul(a.data(), b.data(), y, m, k, n); },
      [&](float* y) { reference::MatMul(a.data(), b.data(), y, m, k, n); },
      base(m * n));
  ExpectConfigsBitExact(
      [&](float* ga) { MatMulGradA(g.data(), b.data(), ga, m, k, n); },
      [&](float* ga) {
        reference::MatMulGradA(g.data(), b.data(), ga, m, k, n);
      },
      base(m * k));
  ExpectConfigsBitExact(
      [&](float* gb) { MatMulGradB(g.data(), a.data(), gb, m, k, n); },
      [&](float* gb) {
        reference::MatMulGradB(g.data(), a.data(), gb, m, k, n);
      },
      base(k * n));
}

TEST(KernelsBitExactTest, MatMulForwardAndBackward) {
  common::Rng rng(108);
  struct Mkn {
    int64_t m, k, n;
  };
  // The last two are shapes train dispatches, at full size: a 3000 x 32 x 32
  // projection and the GAT edge-attention projection (22 838 edges x 16 head
  // dims x 1).
  const Mkn shapes[] = {{1, 1, 1},      {3, 5, 2},    {7, 63, 33},
                        {16, 65, 17},   {33, 32, 65}, {3000, 32, 32},
                        {22838, 16, 1}};
  for (const auto& s : shapes) ExpectMatMulBitExact(s.m, s.k, s.n, rng);

  // Matrix-vector products (n = 1), the shape of the GAT edge-attention
  // projection.
  for (const int64_t m : {1, 7, 517}) {
    for (const int64_t k : {1, 16, 17}) ExpectMatMulBitExact(m, k, 1, rng);
  }
}

// Checks MatMulTransB's three epilogues on one (m, k, n) against the ops
// decode ran before it: reference Transpose + MatMul, then Add onto c, then
// Scale. c starts with -0.0s planted. With `plant_zeros` false, a holds one
// zero, at row 3 (inside the first block, not its first row), facing +Inf
// in b's row 0: only the zero skip keeps c[3,0] finite, and every other
// block has no zero, so it takes the nest's loop without the test, as
// decode's normalized states do. With it true, a holds exact zeros and
// negative zeros; every fourth column of a (p = 1, 5, ..) is zero in every
// row while b holds NaN and infinities there, so a term the zero skip
// missed turns sums into NaN; and rows 4, 17, .. of a are all zero, so
// their sums stay +0.0 and turn c's -0.0s into +0.0 under the add
// epilogues.
void ExpectMatMulTransBBitExact(int64_t m, int64_t k, int64_t n,
                                bool plant_zeros, common::Rng& rng) {
  const auto at = [k](int64_t row, int64_t p) {
    return static_cast<size_t>(row * k + p);
  };
  auto a = RandomVec(rng, static_cast<size_t>(m * k));
  auto b = RandomVec(rng, static_cast<size_t>(n * k));
  if (plant_zeros) {
    for (size_t i = 0; i < a.size(); i += 5) a[i] = 0.0f;
    for (size_t i = 3; i < a.size(); i += 11) a[i] = -0.0f;
    const float inf = std::numeric_limits<float>::infinity();
    const float poison[] = {std::nanf(""), inf, -inf};
    for (int64_t p = 1; p < k; p += 4) {
      for (int64_t i = 0; i < m; ++i) a[at(i, p)] = i % 2 ? -0.0f : 0.0f;
      for (int64_t j = 0; j < n; ++j) b[at(j, p)] = poison[j % 3];
    }
    for (int64_t i = 4; i < m; i += 13) {
      for (int64_t p = 0; p < k; ++p) a[at(i, p)] = p % 2 ? -0.0f : 0.0f;
    }
  } else {
    for (auto& v : a) {
      if (v == 0.0f) v = 0.5f;
    }
    if (m > 3 && k > 0 && n > 0) {
      a[at(3, k / 2)] = 0.0f;
      b[at(0, k / 2)] = std::numeric_limits<float>::infinity();
    }
  }
  auto c = RandomVec(rng, static_cast<size_t>(m * n));
  for (size_t i = 1; i < c.size(); i += 7) c[i] = -0.0f;

  std::vector<float> bt(static_cast<size_t>(k * n));
  std::vector<float> product(static_cast<size_t>(m * n));
  reference::Transpose(b.data(), bt.data(), n, k);
  reference::MatMul(a.data(), bt.data(), product.data(), m, k, n);
  const int64_t len = m * n;
  const float s = 1.0f / 9.0f;
  ExpectConfigsBitExact(
      [&](float* y) {
        MatMulTransB(a.data(), b.data(), y, m, k, n, GemmEpilogue::kStore);
      },
      [&](float* y) { std::copy(product.begin(), product.end(), y); }, c);
  ExpectConfigsBitExact(
      [&](float* y) {
        MatMulTransB(a.data(), b.data(), y, m, k, n, GemmEpilogue::kAdd);
      },
      [&](float* y) { reference::Add(y, product.data(), y, len); }, c);
  ExpectConfigsBitExact(
      [&](float* y) {
        MatMulTransB(a.data(), b.data(), y, m, k, n, GemmEpilogue::kAddScale,
                     s);
      },
      [&](float* y) {
        reference::Add(y, product.data(), y, len);
        reference::Scale(y, s, y, len);
      },
      c);
}

TEST(KernelsBitExactTest, MatMulTransBEpilogues) {
  // The edge grid covers partial row blocks (m mod 6 != 0) and partial
  // panels (n mod 8 and n mod 16 != 0) at both tile widths.
  const int64_t kEdge[] = {1, 7, 8, 63, 64, 65, 129};
  common::Rng rng(110);
  for (const bool plant_zeros : {true, false}) {
    for (const int64_t m : kEdge) {
      for (const int64_t k : kEdge) {
        for (const int64_t n : kEdge) {
          ExpectMatMulTransBBitExact(m, k, n, plant_zeros, rng);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
    // k = 0 leaves every sum at +0.0; m = 0 and n = 0 leave c empty.
    ExpectMatMulTransBBitExact(5, 0, 6, plant_zeros, rng);
    ExpectMatMulTransBBitExact(0, 9, 6, plant_zeros, rng);
    ExpectMatMulTransBBitExact(4, 9, 0, plant_zeros, rng);
    // Decode's shape: 1400 test pairs x 128-wide states.
    ExpectMatMulTransBBitExact(1400, 128, 1400, plant_zeros, rng);
  }
}

// The SolverBitExactTest suite keeps its name from when GEMM had several
// interchangeable solvers; its shape sweeps now check the one GEMM path
// (MatMul, MatMulGradA, MatMulGradB) under every ISA x partitioning config.
TEST(SolverBitExactTest, EdgeShapeGridAllOpsAllSolvers) {
  // Every m, k, n from the vector-width edge set: below one 8-lane group
  // (1, 7), exactly one (8), straddling 64 (63, 64, 65), and a remainder
  // after 16 full lanes (129).
  const int64_t kEdge[] = {1, 7, 8, 63, 64, 65, 129};
  common::Rng rng(20260808);
  for (const int64_t m : kEdge) {
    for (const int64_t k : kEdge) {
      for (const int64_t n : kEdge) {
        ExpectMatMulBitExact(m, k, n, rng);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(SolverBitExactTest, DegenerateAndSkewedShapes) {
  common::Rng rng(31337);
  ExpectMatMulBitExact(5, 0, 6, rng);    // k = 0: fwd zeroes, grad_b adds
                                         // nothing
  ExpectMatMulBitExact(4, 9, 0, rng);    // n = 0: grad_a still adds +0.0
                                         // per element
  ExpectMatMulBitExact(0, 9, 6, rng);    // m = 0: empty everything
  ExpectMatMulBitExact(517, 3, 2, rng);  // tall-skinny
  ExpectMatMulBitExact(2, 3, 517, rng);  // wide
  ExpectMatMulBitExact(1, 300, 1, rng);  // long pure reduction
}

TEST(SolverBitExactTest, MultipleKcBlocksKeepAccumulationOrder) {
  // k > 256: long accumulation chains must keep the reference's
  // ascending-p order term for term.
  common::Rng rng(99);
  ExpectMatMulBitExact(17, 300, 23, rng);
  ExpectMatMulBitExact(9, 513, 9, rng);
}

}  // namespace
}  // namespace desalign::tensor::kernels
