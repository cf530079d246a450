#ifndef DESALIGN_TENSOR_KERNELS_GEMM_H_
#define DESALIGN_TENSOR_KERNELS_GEMM_H_

#include <cstdint>

// Dense matmul forward/backward kernels, row-partitioned over disjoint
// output rows (bit-deterministic for any thread count — see rowwise.h for
// the contract). Shapes follow ops::MatMul: a is (m x k), b is (k x n),
// y/g are (m x n), ga is (m x k), gb is (k x n); all row-major contiguous.

namespace desalign::tensor::kernels {

// y = a * b. y may be uninitialized: each output row is zeroed before
// accumulation, preserving the zero-initialized + ikj accumulation order of
// the serial implementation this replaced (including its skip of zero
// a-elements).
void MatMul(const float* a, const float* b, float* y, int64_t m, int64_t k,
            int64_t n);

// ga += g * b^T. Internally transposes b once (pooled workspace) and streams
// each output row as a sequence of axpy operations over j — the summation
// order per (i,p) element is exactly the serial dot product's j-ascending
// order, but the inner loop is lane-independent and vectorizes.
void MatMulGradA(const float* g, const float* b, float* ga, int64_t m,
                 int64_t k, int64_t n);

// gb += a^T * g, partitioned over rows of gb; rows of g are applied in
// ascending i order per chunk (matching the serial i-outer loop), and zero
// a-elements are skipped exactly as before.
void MatMulGradB(const float* g, const float* a, float* gb, int64_t m,
                 int64_t k, int64_t n);

// What MatMulTransB does with each finished dot product d = (a * b^T)[i,j].
enum class GemmEpilogue {
  kStore,     // c[i,j] = d
  kAdd,       // c[i,j] = c[i,j] + d
  kAddScale,  // c[i,j] = s * (c[i,j] + d)
};

// c (epilogue) a * b^T, with b (n x k), so c is (m x n). Each dot product
// starts at +0.0f and adds the rounded a[i,p] * b[j,p] in ascending p,
// skipping a[i,p] == 0.0f as MatMul does, before the epilogue reads c: the
// result is bit-identical to MatMul(a, Transpose(b)) followed by Add and
// Scale. Not differentiable; the autograd path keeps MatMul + Transpose.
void MatMulTransB(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, GemmEpilogue epilogue,
                  float s = 1.0f);

}  // namespace desalign::tensor::kernels

#endif  // DESALIGN_TENSOR_KERNELS_GEMM_H_
