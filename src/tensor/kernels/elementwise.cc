#include "tensor/kernels/elementwise.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/thread_pool.h"
#include "tensor/kernels/internal.h"

namespace desalign::tensor::kernels {

// Baseline-ISA instantiation of every span body and GEMM loop nest (see
// internal.h).
namespace scalar_impl {
#include "tensor/kernels/span_bodies.inl"
#include "tensor/kernels/gemm_bodies.inl"
}  // namespace scalar_impl

namespace {

// Approximate per-element scalar-op costs, used only to size ParallelFor
// chunks (KernelGrain targets a fixed op count per chunk). Wrong values cost
// speed, never correctness.
constexpr int64_t kCheap = 1;           // add/mul/compare
constexpr int64_t kTranscendental = 24; // exp/log/tanh via libm

template <typename SpanFn>
void ParallelSpan(int64_t n, int64_t cost, const SpanFn& fn) {
  const IsaLevel isa = ActiveIsa();
  common::ThreadPool::Global().ParallelFor(
      0, n, [&](int64_t b, int64_t e) { fn(isa, b, e - b); },
      SpanGrain(cost));
}

}  // namespace

void Add(const float* a, const float* b, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Add(isa, a + o, b + o, y + o, len);
  });
}

void Sub(const float* a, const float* b, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Sub(isa, a + o, b + o, y + o, len);
  });
}

void Mul(const float* a, const float* b, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Mul(isa, a + o, b + o, y + o, len);
  });
}

void Div(const float* a, const float* b, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Div(isa, a + o, b + o, y + o, len);
  });
}

void Scale(const float* x, float s, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Scale(isa, x + o, s, y + o, len);
  });
}

void MulScalar(const float* x, float s, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::MulConst(isa, x + o, s, y + o, len);
  });
}

void AddScalar(const float* x, float s, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::AddConst(isa, x + o, s, y + o, len);
  });
}

void Relu(const float* x, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Relu(isa, x + o, y + o, len);
  });
}

void LeakyRelu(const float* x, float slope, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::LeakyRelu(isa, x + o, slope, y + o, len);
  });
}

void Sigmoid(const float* x, float* y, int64_t n) {
  ParallelSpan(n, kTranscendental, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Sigmoid(isa, x + o, y + o, len);
  });
}

void Tanh(const float* x, float* y, int64_t n) {
  ParallelSpan(n, kTranscendental, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Tanh(isa, x + o, y + o, len);
  });
}

void Exp(const float* x, float* y, int64_t n) {
  ParallelSpan(n, kTranscendental, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Exp(isa, x + o, y + o, len);
  });
}

void LogEps(const float* x, float eps, float* y, int64_t n) {
  ParallelSpan(n, kTranscendental, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::LogEps(isa, x + o, eps, y + o, len);
  });
}

void Square(const float* x, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Square(isa, x + o, y + o, len);
  });
}

void Abs(const float* x, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Abs(isa, x + o, y + o, len);
  });
}

void Clip(const float* x, float lo, float hi, float* y, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Clip(isa, x + o, lo, hi, y + o, len);
  });
}

void Accumulate(const float* g, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Acc(isa, g + o, out + o, len);
  });
}

void AccumulateNeg(const float* g, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::AccNeg(isa, g + o, out + o, len);
  });
}

void Axpy(float alpha, const float* x, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::Axpy(isa, alpha, x + o, out + o, len);
  });
}

void AccumulateConstant(float v, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::AccConst(isa, v, out + o, len);
  });
}

void AccumulateScaled(const float* g, float s, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::AccMulConst(isa, g + o, s, out + o, len);
  });
}

void AccumulateProduct(const float* g, const float* x, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::AccMul(isa, g + o, x + o, out + o, len);
  });
}

void AccumulateQuotient(const float* g, const float* b, float* out,
                        int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::AccDiv(isa, g + o, b + o, out + o, len);
  });
}

void DivGradB(const float* g, const float* a, const float* b, float* out,
              int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::DivGradB(isa, g + o, a + o, b + o, out + o, len);
  });
}

void ReluGrad(const float* g, const float* x, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::ReluGrad(isa, g + o, x + o, out + o, len);
  });
}

void LeakyReluGrad(const float* g, const float* x, float slope, float* out,
                   int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::LeakyReluGrad(isa, g + o, x + o, slope, out + o, len);
  });
}

void SigmoidGrad(const float* g, const float* y, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::SigmoidGrad(isa, g + o, y + o, out + o, len);
  });
}

void TanhGrad(const float* g, const float* y, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::TanhGrad(isa, g + o, y + o, out + o, len);
  });
}

void LogEpsGrad(const float* g, const float* x, float eps, float* out,
                int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::LogEpsGrad(isa, g + o, x + o, eps, out + o, len);
  });
}

void SquareGrad(const float* g, const float* x, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::SquareGrad(isa, g + o, x + o, out + o, len);
  });
}

void AbsGrad(const float* g, const float* x, float* out, int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::AbsGrad(isa, g + o, x + o, out + o, len);
  });
}

void ClipGrad(const float* g, const float* x, float lo, float hi, float* out,
              int64_t n) {
  ParallelSpan(n, kCheap, [&](IsaLevel isa, int64_t o, int64_t len) {
    span::ClipGrad(isa, g + o, x + o, lo, hi, out + o, len);
  });
}

}  // namespace desalign::tensor::kernels
