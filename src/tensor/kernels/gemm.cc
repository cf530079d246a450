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

void MatMulTransB(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, GemmEpilogue epilogue, float s) {
  if (m == 0 || n == 0) return;  // c is empty
  const IsaLevel isa = ActiveIsa();
  const int64_t width = TransBPanelWidth(isa);
  const int64_t panels = (n + width - 1) / width;
  // Panel q holds b's rows [q * width, (q + 1) * width) p-major, each p's
  // `width` values contiguous; rows past n are zero and their sums dropped.
  // Serial: at decode's 1400 x 128 the pack takes ~0.12 ms, and no less
  // when split over 4 threads.
  PooledBuffer packed(static_cast<size_t>(panels * width * k),
                      /*zero=*/false);
  float* bp = packed.data();
  for (int64_t q = 0; q < panels; ++q) {
    for (int64_t l = 0; l < width; ++l) {
      const int64_t j = q * width + l;
      for (int64_t p = 0; p < k; ++p) {
        bp[(q * k + p) * width + l] = j < n ? b[j * k + p] : 0.0f;
      }
    }
  }
  common::ThreadPool::Global().ParallelFor(
      0, (m + kTransBRows - 1) / kTransBRows,
      [&](int64_t block_begin, int64_t block_end) {
        span::MatMulTransBBlocks(isa, a, bp, c, m, k, n, epilogue, s,
                                 block_begin, block_end);
      },
      KernelGrain(kTransBRows * k * panels * width));
}

}  // namespace desalign::tensor::kernels
