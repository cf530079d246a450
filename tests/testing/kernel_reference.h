#ifndef DESALIGN_TESTS_TESTING_KERNEL_REFERENCE_H_
#define DESALIGN_TESTS_TESTING_KERNEL_REFERENCE_H_

#include <cstdint>

// Serial scalar reference implementations, transcribed from the
// pre-kernel-layer src/tensor/ops.cc loops: the ground truth for the
// bit-exactness suite (tests/tensor/kernels_bitexact_test.cc) and the
// baseline bench/kernel_bench.cc reports speedups against. The test-only
// desalign_kernel_reference library is deliberately compiled WITHOUT the
// kernel layer's -O3 flags, so the baseline reflects what the op layer
// actually ran before the kernel layer existed.
//
// Signatures mirror the public kernels in elementwise.h / rowwise.h /
// gemm.h one-for-one.

namespace desalign::tensor::kernels::reference {

// ---- elementwise ----
void Add(const float* a, const float* b, float* y, int64_t n);
void Sub(const float* a, const float* b, float* y, int64_t n);
void Mul(const float* a, const float* b, float* y, int64_t n);
void Div(const float* a, const float* b, float* y, int64_t n);
void Scale(const float* x, float s, float* y, int64_t n);
void MulScalar(const float* x, float s, float* y, int64_t n);
void AddScalar(const float* x, float s, float* y, int64_t n);
void Relu(const float* x, float* y, int64_t n);
void LeakyRelu(const float* x, float slope, float* y, int64_t n);
void Sigmoid(const float* x, float* y, int64_t n);
void Tanh(const float* x, float* y, int64_t n);
void Exp(const float* x, float* y, int64_t n);
void LogEps(const float* x, float eps, float* y, int64_t n);
void Square(const float* x, float* y, int64_t n);
void Abs(const float* x, float* y, int64_t n);
void Clip(const float* x, float lo, float hi, float* y, int64_t n);
void Accumulate(const float* g, float* out, int64_t n);
void AccumulateNeg(const float* g, float* out, int64_t n);
void Axpy(float alpha, const float* x, float* out, int64_t n);
void AccumulateConstant(float v, float* out, int64_t n);
void AccumulateScaled(const float* g, float s, float* out, int64_t n);
void AccumulateProduct(const float* g, const float* x, float* out, int64_t n);
void AccumulateQuotient(const float* g, const float* b, float* out,
                        int64_t n);
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

// ---- rowwise ----
void AddRowBroadcast(const float* a, const float* row, float* y, int64_t n,
                     int64_t c);
void MulRowBroadcast(const float* a, const float* row, float* y, int64_t n,
                     int64_t c);
void MulRowBroadcastAcc(const float* g, const float* row, float* out,
                        int64_t n, int64_t c);
void RowScale(const float* a, const float* s, float* y, int64_t n, int64_t c);
void RowScaleAcc(const float* g, const float* s, float* out, int64_t n,
                 int64_t c);
void RowDotAcc(const float* g, const float* x, float* out, int64_t n,
               int64_t c);
void AddColBroadcastAcc(const float* g, float* out, int64_t n, int64_t c);
void ColumnAcc(const float* g, float* out, int64_t n, int64_t c);
void ColumnAccMul(const float* g, const float* x, float* out, int64_t n,
                  int64_t c);
void RowSoftmax(const float* a, float* y, int64_t n, int64_t c);
void RowSoftmaxGrad(const float* y, const float* g, float* out, int64_t n,
                    int64_t c);
void RowLogSoftmax(const float* a, float* y, int64_t n, int64_t c);
void RowLogSoftmaxGrad(const float* y, const float* g, float* out, int64_t n,
                       int64_t c);
void RowL2Normalize(const float* a, float eps, float* y, float* norms,
                    int64_t n, int64_t c);
void RowL2NormalizeGrad(const float* y, const float* g, const float* norms,
                        float* out, int64_t n, int64_t c);
void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* y, float* xhat, float* inv_sigma,
                      int64_t n, int64_t c);
void LayerNormGradX(const float* g, const float* gamma, const float* xhat,
                    const float* inv_sigma, float* gx, int64_t n, int64_t c);
void GatherRows(const float* a, const int64_t* indices, float* y, int64_t e,
                int64_t c);
void ScatterAddRows(const float* g, const int64_t* indices, float* out,
                    int64_t e, int64_t c);
void GatherRowsAcc(const float* g, const int64_t* indices, float* out,
                   int64_t e, int64_t c);
void Transpose(const float* a, float* y, int64_t m, int64_t n);
void TransposeAcc(const float* g, float* out, int64_t m, int64_t n);
// One squared-L2 loop per column, as the k-means and IVF code ran it per
// centroid before the coarse quantizer used SqDistColumns.
void SqDistColumns(const float* x, const float* cols, float* out,
                   int64_t dim, int64_t k);

// ---- gemm ----
void MatMul(const float* a, const float* b, float* y, int64_t m, int64_t k,
            int64_t n);
void MatMulGradA(const float* g, const float* b, float* ga, int64_t m,
                 int64_t k, int64_t n);
void MatMulGradB(const float* g, const float* a, float* gb, int64_t m,
                 int64_t k, int64_t n);

}  // namespace desalign::tensor::kernels::reference

#endif  // DESALIGN_TESTS_TESTING_KERNEL_REFERENCE_H_
