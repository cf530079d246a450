#ifndef DESALIGN_TENSOR_KERNELS_ELEMENTWISE_H_
#define DESALIGN_TENSOR_KERNELS_ELEMENTWISE_H_

#include <cstdint>

// Parallel elementwise kernels over contiguous float spans. Each call
// resolves the active ISA level once, then partitions [0, n) into contiguous
// chunks via ThreadPool::ParallelFor. Because every output element depends
// only on the same input index, the partitioning cannot change results:
// outputs are bit-identical for any thread count and any ISA level.
//
// Accumulating forms (`out[i] += ...`) mirror the autograd backward lambdas
// they replaced; their expressions are kept token-for-token identical to the
// pre-kernel-layer ops.cc so gradients stay bit-exact (enforced by
// tests/tensor/kernels_bitexact_test.cc against the serial oracle in
// tests/testing/kernel_reference.cc).

namespace desalign::tensor::kernels {

// ---- Forward ----
void Add(const float* a, const float* b, float* y, int64_t n);
void Sub(const float* a, const float* b, float* y, int64_t n);
void Mul(const float* a, const float* b, float* y, int64_t n);
void Div(const float* a, const float* b, float* y, int64_t n);
void Scale(const float* x, float s, float* y, int64_t n);      // y = s * x
void MulScalar(const float* x, float s, float* y, int64_t n);  // y = x * s
void AddScalar(const float* x, float s, float* y, int64_t n);  // y = x + s
void Relu(const float* x, float* y, int64_t n);
void LeakyRelu(const float* x, float slope, float* y, int64_t n);
void Sigmoid(const float* x, float* y, int64_t n);
void Tanh(const float* x, float* y, int64_t n);
void Exp(const float* x, float* y, int64_t n);
void LogEps(const float* x, float eps, float* y, int64_t n);  // log(x + eps)
void Square(const float* x, float* y, int64_t n);
void Abs(const float* x, float* y, int64_t n);
void Clip(const float* x, float lo, float hi, float* y, int64_t n);

// ---- Backward / accumulating ----
void Accumulate(const float* g, float* out, int64_t n);     // out += g
void AccumulateNeg(const float* g, float* out, int64_t n);  // out -= g
void Axpy(float alpha, const float* x, float* out, int64_t n);  // out += a*x
void AccumulateConstant(float v, float* out, int64_t n);        // out += v
// out += g * s (operand order differs from Axpy; see span_bodies.inl)
void AccumulateScaled(const float* g, float s, float* out, int64_t n);
// out += g .* x
void AccumulateProduct(const float* g, const float* x, float* out, int64_t n);
// out += g ./ b
void AccumulateQuotient(const float* g, const float* b, float* out, int64_t n);
// out -= g .* a ./ (b .* b)   (Div backward wrt denominator)
void DivGradB(const float* g, const float* a, const float* b, float* out,
              int64_t n);
void ReluGrad(const float* g, const float* x, float* out, int64_t n);
void LeakyReluGrad(const float* g, const float* x, float slope, float* out,
                   int64_t n);
void SigmoidGrad(const float* g, const float* y, float* out, int64_t n);
void TanhGrad(const float* g, const float* y, float* out, int64_t n);
void LogEpsGrad(const float* g, const float* x, float eps, float* out,
                int64_t n);
void SquareGrad(const float* g, const float* x, float* out, int64_t n);
void AbsGrad(const float* g, const float* x, float* out, int64_t n);
void ClipGrad(const float* g, const float* x, float lo, float hi, float* out,
              int64_t n);

}  // namespace desalign::tensor::kernels

#endif  // DESALIGN_TENSOR_KERNELS_ELEMENTWISE_H_
