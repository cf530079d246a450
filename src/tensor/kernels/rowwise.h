#ifndef DESALIGN_TENSOR_KERNELS_ROWWISE_H_
#define DESALIGN_TENSOR_KERNELS_ROWWISE_H_

#include <cstdint>

// Deterministic-parallel kernels over row-major (n x c) matrices.
//
// Determinism contract (see docs/PERFORMANCE.md): every kernel partitions
// work so each output element is written by exactly one thread and its
// accumulation order is a fixed function of the shape — never of the thread
// count. Two schemes are used:
//
//  * row-partitioned — output rows are disjoint per chunk (softmax,
//    LayerNorm, broadcasts, gathers). Within a row the loop is the original
//    serial order.
//  * column-partitioned — reductions *across* rows (bias/gamma gradients,
//    scatter-add with duplicate indices) give each chunk a disjoint column
//    range and iterate rows in ascending order inside it, reproducing the
//    serial per-column accumulation order exactly.
//
// No atomics touch float accumulation anywhere in this layer.
//
// Numerics are kept token-for-token compatible with the pre-kernel-layer
// ops.cc (double accumulators where it used double, float where float), so
// results are bit-identical to the old serial code for every thread count
// and ISA level.

namespace desalign::tensor::kernels {

// ---- Row broadcasts (b is a 1 x c row vector) ----
void AddRowBroadcast(const float* a, const float* row, float* y, int64_t n,
                     int64_t c);
void MulRowBroadcast(const float* a, const float* row, float* y, int64_t n,
                     int64_t c);
// out[r,:] += g[r,:] .* row
void MulRowBroadcastAcc(const float* g, const float* row, float* out,
                        int64_t n, int64_t c);

// ---- Column broadcasts (s is an n x 1 column vector) ----
void RowScale(const float* a, const float* s, float* y, int64_t n, int64_t c);
// out[r,:] += g[r,:] * s[r]
void RowScaleAcc(const float* g, const float* s, float* out, int64_t n,
                 int64_t c);
// out[r] += sum_j g[r,j] * x[r,j]   (serial float accumulation per row)
void RowDotAcc(const float* g, const float* x, float* out, int64_t n,
               int64_t c);
// out[r,:] += g[r]
void AddColBroadcastAcc(const float* g, float* out, int64_t n, int64_t c);

// ---- Cross-row column reductions (column-partitioned) ----
// out[j] += sum_r g[r,j]
void ColumnAcc(const float* g, float* out, int64_t n, int64_t c);
// out[j] += sum_r g[r,j] * x[r,j]
void ColumnAccMul(const float* g, const float* x, float* out, int64_t n,
                  int64_t c);

// ---- Softmax family ----
void RowSoftmax(const float* a, float* y, int64_t n, int64_t c);
// out[r,j] += y[r,j] * (g[r,j] - dot_r),  dot_r = sum_j g[r,j]*y[r,j]
void RowSoftmaxGrad(const float* y, const float* g, float* out, int64_t n,
                    int64_t c);
void RowLogSoftmax(const float* a, float* y, int64_t n, int64_t c);
void RowLogSoftmaxGrad(const float* y, const float* g, float* out, int64_t n,
                       int64_t c);

// ---- Normalization ----
// norms[r] = sqrt(sum_j a[r,j]^2 + eps) (double accumulation), y = a / norm.
void RowL2Normalize(const float* a, float eps, float* y, float* norms,
                    int64_t n, int64_t c);
void RowL2NormalizeGrad(const float* y, const float* g, const float* norms,
                        float* out, int64_t n, int64_t c);
// Per-row mean/var in double; writes y, xhat and inv_sigma (length n).
void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* y, float* xhat, float* inv_sigma,
                      int64_t n, int64_t c);
void LayerNormGradX(const float* g, const float* gamma, const float* xhat,
                    const float* inv_sigma, float* gx, int64_t n, int64_t c);

// ---- Gather / scatter ----
void GatherRows(const float* a, const int64_t* indices, float* y, int64_t e,
                int64_t c);
// out[indices[i],:] += g[i,:]; indices may repeat, so the parallel axis is
// columns and rows are accumulated in ascending i order per column.
void ScatterAddRows(const float* g, const int64_t* indices, float* out,
                    int64_t e, int64_t c);
// out[i,:] += g[indices[i],:] (gather-accumulate; output rows are disjoint
// even with repeated indices, so this is row-partitioned).
void GatherRowsAcc(const float* g, const int64_t* indices, float* out,
                   int64_t e, int64_t c);

// ---- Layout ----
// y (n x m) = a^T for row-major a (m x n).
void Transpose(const float* a, float* y, int64_t m, int64_t n);
// out (m x n) += g^T for row-major g (n x m).
void TransposeAcc(const float* g, float* out, int64_t m, int64_t n);
// dst[r*c+j]           = src[r*src_stride+j]   (column-slice extract)
void CopyStridedToDense(const float* src, int64_t src_stride, float* dst,
                        int64_t n, int64_t c);
// dst[r*dst_stride+j]  = src[r*c+j]            (column-slice insert)
void CopyDenseToStrided(const float* src, float* dst, int64_t dst_stride,
                        int64_t n, int64_t c);
// out[r*c+j]          += g[r*src_stride+j]
void AccStridedToDense(const float* g, int64_t src_stride, float* out,
                       int64_t n, int64_t c);
// out[r*dst_stride+j] += g[r*c+j]
void AccDenseToStrided(const float* g, float* out, int64_t dst_stride,
                       int64_t n, int64_t c);

// ---- Distances ----
// out[j] = sum_p (x[p] - cols[p*k+j])^2 for j < k: the squared L2 distance
// from x (length dim) to each of the k columns of the row-major (dim x k)
// matrix `cols`. Each sum starts at +0.0f and adds (x[p] - cols[p*k+j])^2 in
// ascending p, exactly the serial per-column loop. Runs on the calling
// thread, not the pool: callers (k-means assignment, IVF list build and
// probe) already split their rows across it.
void SqDistColumns(const float* x, const float* cols, float* out,
                   int64_t dim, int64_t k);

}  // namespace desalign::tensor::kernels

#endif  // DESALIGN_TENSOR_KERNELS_ROWWISE_H_
