#include "tensor/kernels/gemm.h"

#include <cstring>

#include "common/thread_pool.h"
#include "tensor/kernels/buffer_pool.h"
#include "tensor/kernels/internal.h"
#include "tensor/kernels/rowwise.h"

namespace desalign::tensor::kernels {

void MatMul(const float* a, const float* b, float* y, int64_t m, int64_t k,
            int64_t n) {
  if (n == 0) return;  // y is empty, and memset must not get its null data
  const IsaLevel isa = ActiveIsa();
  common::ThreadPool::Global().ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          float* yrow = y + i * n;
          std::memset(yrow, 0, static_cast<size_t>(n) * sizeof(float));
          const float* arow = a + i * k;
          for (int64_t p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            span::Axpy(isa, av, b + p * n, yrow, n);
          }
        }
      },
      KernelGrain(k * n));
}

void MatMulGradA(const float* g, const float* b, float* ga, int64_t m,
                 int64_t k, int64_t n) {
  // ga[i,p] += sum_j g[i,j] * b[p,j]. The serial version computed a dot per
  // (i,p); here each row i is built in a zeroed workspace by streaming
  // j-ascending axpys of b's transposed rows. Per element the partial-sum
  // sequence is identical ((..(0 + t_0) + t_1)..), so results are bit-exact,
  // but the inner loop has no loop-carried dependence and vectorizes.
  // Terms with g[i,j] == 0 are NOT skipped — the serial dot included them,
  // and +0.0 is not always a bitwise no-op (-0.0 + 0.0 == +0.0).
  if (k == 0) return;  // ga is empty, and memset must not get tmp's null data
  const IsaLevel isa = ActiveIsa();
  PooledBuffer bt(static_cast<size_t>(n * k), /*zero=*/false);
  Transpose(b, bt.data(), k, n);
  const float* btd = bt.data();
  common::ThreadPool::Global().ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        PooledBuffer tmp(static_cast<size_t>(k), /*zero=*/false);
        for (int64_t i = row_begin; i < row_end; ++i) {
          std::memset(tmp.data(), 0, static_cast<size_t>(k) * sizeof(float));
          const float* grow = g + i * n;
          for (int64_t j = 0; j < n; ++j) {
            span::Axpy(isa, grow[j], btd + j * k, tmp.data(), k);
          }
          span::Acc(isa, tmp.data(), ga + i * k, k);
        }
      },
      KernelGrain(k * n));
}

void MatMulGradB(const float* g, const float* a, float* gb, int64_t m,
                 int64_t k, int64_t n) {
  // gb[p,:] += sum_i a[i,p] * g[i,:], partitioned over p. Within a chunk the
  // i-outer loop applies g's rows in ascending order, matching the serial
  // accumulation order per output element; the zero-skip is preserved from
  // the serial version (skipped terms contribute nothing, not even +0).
  const IsaLevel isa = ActiveIsa();
  common::ThreadPool::Global().ParallelFor(
      0, k,
      [&](int64_t p_begin, int64_t p_end) {
        for (int64_t i = 0; i < m; ++i) {
          const float* grow = g + i * n;
          const float* arow = a + i * k;
          for (int64_t p = p_begin; p < p_end; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            span::Axpy(isa, av, grow, gb + p * n, n);
          }
        }
      },
      KernelGrain(m * n));
}

}  // namespace desalign::tensor::kernels
