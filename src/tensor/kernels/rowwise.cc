#include "tensor/kernels/rowwise.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/thread_pool.h"
#include "tensor/kernels/internal.h"

namespace desalign::tensor::kernels {

namespace {

// Partition [0, n) rows with a grain targeting ~64k scalar ops per chunk
// given `cost` ops per row.
template <typename Fn>
void ParallelRows(int64_t n, int64_t cost_per_row, const Fn& fn) {
  common::ThreadPool::Global().ParallelFor(
      0, n, [&](int64_t b, int64_t e) { fn(b, e); },
      KernelGrain(std::max<int64_t>(1, cost_per_row)));
}

template <typename Fn>
void ParallelCols(int64_t c, int64_t cost_per_col, const Fn& fn) {
  common::ThreadPool::Global().ParallelFor(
      0, c, [&](int64_t b, int64_t e) { fn(b, e); },
      KernelGrain(std::max<int64_t>(1, cost_per_col)));
}

}  // namespace

void AddRowBroadcast(const float* a, const float* row, float* y, int64_t n,
                     int64_t c) {
  const IsaLevel isa = ActiveIsa();
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      span::Add(isa, a + r * c, row, y + r * c, c);
    }
  });
}

void MulRowBroadcast(const float* a, const float* row, float* y, int64_t n,
                     int64_t c) {
  const IsaLevel isa = ActiveIsa();
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      span::Mul(isa, a + r * c, row, y + r * c, c);
    }
  });
}

void MulRowBroadcastAcc(const float* g, const float* row, float* out,
                        int64_t n, int64_t c) {
  const IsaLevel isa = ActiveIsa();
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      span::AccMul(isa, g + r * c, row, out + r * c, c);
    }
  });
}

void RowScale(const float* a, const float* s, float* y, int64_t n,
              int64_t c) {
  const IsaLevel isa = ActiveIsa();
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      span::MulConst(isa, a + r * c, s[r], y + r * c, c);
    }
  });
}

void RowScaleAcc(const float* g, const float* s, float* out, int64_t n,
                 int64_t c) {
  const IsaLevel isa = ActiveIsa();
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      span::AccMulConst(isa, g + r * c, s[r], out + r * c, c);
    }
  });
}

void RowDotAcc(const float* g, const float* x, float* out, int64_t n,
               int64_t c) {
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      float acc = 0.0f;
      const float* gr = g + r * c;
      const float* xr = x + r * c;
      for (int64_t j = 0; j < c; ++j) acc += gr[j] * xr[j];
      out[r] += acc;
    }
  });
}

void AddColBroadcastAcc(const float* g, float* out, int64_t n, int64_t c) {
  const IsaLevel isa = ActiveIsa();
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      span::AccConst(isa, g[r], out + r * c, c);
    }
  });
}

void ColumnAcc(const float* g, float* out, int64_t n, int64_t c) {
  // Column-partitioned: each chunk owns columns [jb, je) and walks rows in
  // ascending order, so per-column accumulation order matches the serial
  // row-outer loop this replaced.
  ParallelCols(c, n, [&](int64_t jb, int64_t je) {
    for (int64_t r = 0; r < n; ++r) {
      const float* gr = g + r * c;
      for (int64_t j = jb; j < je; ++j) out[j] += gr[j];
    }
  });
}

void ColumnAccMul(const float* g, const float* x, float* out, int64_t n,
                  int64_t c) {
  ParallelCols(c, n, [&](int64_t jb, int64_t je) {
    for (int64_t r = 0; r < n; ++r) {
      const float* gr = g + r * c;
      const float* xr = x + r * c;
      for (int64_t j = jb; j < je; ++j) out[j] += gr[j] * xr[j];
    }
  });
}

void RowSoftmax(const float* a, float* y, int64_t n, int64_t c) {
  ParallelRows(n, c * 8, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      const float* ar = a + r * c;
      float* yr = y + r * c;
      float mx = -std::numeric_limits<float>::infinity();
      for (int64_t j = 0; j < c; ++j) mx = std::max(mx, ar[j]);
      float denom = 0.0f;
      for (int64_t j = 0; j < c; ++j) {
        const float e = std::exp(ar[j] - mx);
        yr[j] = e;
        denom += e;
      }
      for (int64_t j = 0; j < c; ++j) yr[j] /= denom;
    }
  });
}

void RowSoftmaxGrad(const float* y, const float* g, float* out, int64_t n,
                    int64_t c) {
  ParallelRows(n, c * 4, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      const float* yr = y + r * c;
      const float* gr = g + r * c;
      float* or_ = out + r * c;
      float dot = 0.0f;
      for (int64_t j = 0; j < c; ++j) dot += gr[j] * yr[j];
      for (int64_t j = 0; j < c; ++j) or_[j] += yr[j] * (gr[j] - dot);
    }
  });
}

void RowLogSoftmax(const float* a, float* y, int64_t n, int64_t c) {
  ParallelRows(n, c * 8, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      const float* ar = a + r * c;
      float* yr = y + r * c;
      float mx = -std::numeric_limits<float>::infinity();
      for (int64_t j = 0; j < c; ++j) mx = std::max(mx, ar[j]);
      float denom = 0.0f;
      for (int64_t j = 0; j < c; ++j) denom += std::exp(ar[j] - mx);
      const float logz = mx + std::log(denom);
      for (int64_t j = 0; j < c; ++j) yr[j] = ar[j] - logz;
    }
  });
}

void RowLogSoftmaxGrad(const float* y, const float* g, float* out, int64_t n,
                       int64_t c) {
  ParallelRows(n, c * 8, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      const float* yr = y + r * c;
      const float* gr = g + r * c;
      float* or_ = out + r * c;
      float gsum = 0.0f;
      for (int64_t j = 0; j < c; ++j) gsum += gr[j];
      for (int64_t j = 0; j < c; ++j) {
        const float sm = std::exp(yr[j]);
        or_[j] += gr[j] - sm * gsum;
      }
    }
  });
}

void RowL2Normalize(const float* a, float eps, float* y, float* norms,
                    int64_t n, int64_t c) {
  ParallelRows(n, c * 4, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      const float* ar = a + r * c;
      float* yr = y + r * c;
      double acc = 0.0;
      for (int64_t j = 0; j < c; ++j) {
        const float v = ar[j];
        acc += static_cast<double>(v) * v;
      }
      norms[r] = static_cast<float>(std::sqrt(acc + eps));
      for (int64_t j = 0; j < c; ++j) yr[j] = ar[j] / norms[r];
    }
  });
}

void RowL2NormalizeGrad(const float* y, const float* g, const float* norms,
                        float* out, int64_t n, int64_t c) {
  ParallelRows(n, c * 4, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      const float* yr = y + r * c;
      const float* gr = g + r * c;
      float* or_ = out + r * c;
      float dot = 0.0f;
      for (int64_t j = 0; j < c; ++j) dot += gr[j] * yr[j];
      for (int64_t j = 0; j < c; ++j) {
        or_[j] += (gr[j] - yr[j] * dot) / norms[r];
      }
    }
  });
}

void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* y, float* xhat, float* inv_sigma,
                      int64_t n, int64_t c) {
  ParallelRows(n, c * 6, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      const float* xr = x + r * c;
      float* yr = y + r * c;
      float* xhr = xhat + r * c;
      double mean = 0.0;
      for (int64_t j = 0; j < c; ++j) mean += xr[j];
      mean /= c;
      double var = 0.0;
      for (int64_t j = 0; j < c; ++j) {
        const double d = xr[j] - mean;
        var += d * d;
      }
      var /= c;
      inv_sigma[r] = static_cast<float>(1.0 / std::sqrt(var + eps));
      for (int64_t j = 0; j < c; ++j) {
        const float xh = (xr[j] - static_cast<float>(mean)) * inv_sigma[r];
        xhr[j] = xh;
        yr[j] = gamma[j] * xh + beta[j];
      }
    }
  });
}

void LayerNormGradX(const float* g, const float* gamma, const float* xhat,
                    const float* inv_sigma, float* gx, int64_t n, int64_t c) {
  ParallelRows(n, c * 8, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      const float* gr = g + r * c;
      const float* xhr = xhat + r * c;
      float* gxr = gx + r * c;
      // d = gamma ⊙ dy; dx = (d - mean(d) - xhat*mean(d⊙xhat)) * inv_sigma
      float mean_d = 0.0f;
      float mean_dx = 0.0f;
      for (int64_t j = 0; j < c; ++j) {
        const float d = gamma[j] * gr[j];
        mean_d += d;
        mean_dx += d * xhr[j];
      }
      mean_d /= c;
      mean_dx /= c;
      for (int64_t j = 0; j < c; ++j) {
        const float d = gamma[j] * gr[j];
        gxr[j] += (d - mean_d - xhr[j] * mean_dx) * inv_sigma[r];
      }
    }
  });
}

void GatherRows(const float* a, const int64_t* indices, float* y, int64_t e,
                int64_t c) {
  ParallelRows(e, c, [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      std::memcpy(y + i * c, a + indices[i] * c,
                  static_cast<size_t>(c) * sizeof(float));
    }
  });
}

void ScatterAddRows(const float* g, const int64_t* indices, float* out,
                    int64_t e, int64_t c) {
  // Indices may repeat, so rows cannot be the parallel axis. Each chunk owns
  // a disjoint column range and applies all e updates in ascending i order,
  // reproducing the serial accumulation order per output element.
  ParallelCols(c, e, [&](int64_t jb, int64_t je) {
    for (int64_t i = 0; i < e; ++i) {
      const float* gr = g + i * c;
      float* or_ = out + indices[i] * c;
      for (int64_t j = jb; j < je; ++j) or_[j] += gr[j];
    }
  });
}

void GatherRowsAcc(const float* g, const int64_t* indices, float* out,
                   int64_t e, int64_t c) {
  const IsaLevel isa = ActiveIsa();
  ParallelRows(e, c, [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      span::Acc(isa, g + indices[i] * c, out + i * c, c);
    }
  });
}

void Transpose(const float* a, float* y, int64_t m, int64_t n) {
  ParallelRows(m, n, [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      const float* ar = a + i * n;
      for (int64_t j = 0; j < n; ++j) y[j * m + i] = ar[j];
    }
  });
}

void TransposeAcc(const float* g, float* out, int64_t m, int64_t n) {
  ParallelRows(m, n, [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      float* or_ = out + i * n;
      for (int64_t j = 0; j < n; ++j) or_[j] += g[j * m + i];
    }
  });
}

void CopyStridedToDense(const float* src, int64_t src_stride, float* dst,
                        int64_t n, int64_t c) {
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      std::memcpy(dst + r * c, src + r * src_stride,
                  static_cast<size_t>(c) * sizeof(float));
    }
  });
}

void CopyDenseToStrided(const float* src, float* dst, int64_t dst_stride,
                        int64_t n, int64_t c) {
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      std::memcpy(dst + r * dst_stride, src + r * c,
                  static_cast<size_t>(c) * sizeof(float));
    }
  });
}

void AccStridedToDense(const float* g, int64_t src_stride, float* out,
                       int64_t n, int64_t c) {
  const IsaLevel isa = ActiveIsa();
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      span::Acc(isa, g + r * src_stride, out + r * c, c);
    }
  });
}

void AccDenseToStrided(const float* g, float* out, int64_t dst_stride,
                       int64_t n, int64_t c) {
  const IsaLevel isa = ActiveIsa();
  ParallelRows(n, c, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      span::Acc(isa, g + r * c, out + r * dst_stride, c);
    }
  });
}

void SqDistColumns(const float* x, const float* cols, float* out,
                   int64_t dim, int64_t k) {
  // The vector lanes run across columns, never within one sum, so each
  // column's sum keeps the serial ascending-p order on every ISA.
  const IsaLevel isa = ActiveIsa();
  std::fill(out, out + k, 0.0f);
  for (int64_t p = 0; p < dim; ++p) {
    span::SqDistAcc(isa, x[p], cols + p * k, out, k);
  }
}

}  // namespace desalign::tensor::kernels
