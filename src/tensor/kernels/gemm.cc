#include "tensor/kernels/gemm.h"

#include "common/thread_pool.h"
#include "tensor/kernels/buffer_pool.h"
#include "tensor/kernels/internal.h"
#include "tensor/kernels/rowwise.h"

// The loop nests each chunk runs live in gemm_bodies.inl, compiled once per
// ISA; this file only partitions the work and owns the workspaces.

namespace desalign::tensor::kernels {

void MatMul(const float* a, const float* b, float* y, int64_t m, int64_t k,
            int64_t n) {
  if (n == 0) return;  // y is empty, and memset must not get its null data
  const IsaLevel isa = ActiveIsa();
  common::ThreadPool::Global().ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        span::MatMulRows(isa, a, b, y, k, n, row_begin, row_end);
      },
      KernelGrain(k * n));
}

void MatMulGradA(const float* g, const float* b, float* ga, int64_t m,
                 int64_t k, int64_t n) {
  if (k == 0) return;  // ga is empty, and memset must not get tmp's null data
  const IsaLevel isa = ActiveIsa();
  PooledBuffer bt(static_cast<size_t>(n * k), /*zero=*/false);
  Transpose(b, bt.data(), k, n);
  const float* btd = bt.data();
  common::ThreadPool::Global().ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        PooledBuffer tmp(static_cast<size_t>(k), /*zero=*/false);
        span::MatMulGradARows(isa, g, btd, ga, tmp.data(), k, n, row_begin,
                              row_end);
      },
      KernelGrain(k * n));
}

void MatMulGradB(const float* g, const float* a, float* gb, int64_t m,
                 int64_t k, int64_t n) {
  const IsaLevel isa = ActiveIsa();
  common::ThreadPool::Global().ParallelFor(
      0, k,
      [&](int64_t p_begin, int64_t p_end) {
        span::MatMulGradBCols(isa, g, a, gb, m, k, n, p_begin, p_end);
      },
      KernelGrain(m * n));
}

}  // namespace desalign::tensor::kernels
