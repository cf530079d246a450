#include "tensor/kernels/reference.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

// Transcribed from the pre-kernel-layer src/tensor/ops.cc (commit 805110d):
// plain serial loops, no restrict, no explicit vector paths. Do not
// "improve" these — their only job is to be exactly what the op layer used
// to execute.

namespace desalign::tensor::kernels::reference {

void Add(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

void Sub(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] - b[i];
}

void Mul(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] * b[i];
}

void Div(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] / b[i];
}

void Scale(const float* x, float s, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = s * x[i];
}

void MulScalar(const float* x, float s, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] * s;
}

void AddScalar(const float* x, float s, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] + s;
}

void Relu(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void LeakyRelu(const float* x, float slope, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : slope * x[i];
}

void Sigmoid(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void Tanh(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void Exp(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::exp(x[i]);
}

void LogEps(const float* x, float eps, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::log(x[i] + eps);
}

void Square(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] * x[i];
}

void Abs(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::fabs(x[i]);
}

void Clip(const float* x, float lo, float hi, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] = x[i] < lo ? lo : (x[i] > hi ? hi : x[i]);
  }
}

void Accumulate(const float* g, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += g[i];
}

void AccumulateNeg(const float* g, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] -= g[i];
}

void Axpy(float alpha, const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += alpha * x[i];
}

void AccumulateConstant(float v, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += v;
}

void AccumulateScaled(const float* g, float s, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += g[i] * s;
}

void AccumulateProduct(const float* g, const float* x, float* out,
                       int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += g[i] * x[i];
}

void AccumulateQuotient(const float* g, const float* b, float* out,
                        int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += g[i] / b[i];
}

void DivGradB(const float* g, const float* a, const float* b, float* out,
              int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float bv = b[i];
    out[i] -= g[i] * a[i] / (bv * bv);
  }
}

void ReluGrad(const float* g, const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] += g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
  }
}

void LeakyReluGrad(const float* g, const float* x, float slope, float* out,
                   int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] += g[i] * (x[i] > 0.0f ? 1.0f : slope);
  }
}

void SigmoidGrad(const float* g, const float* y, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += g[i] * (y[i] * (1.0f - y[i]));
}

void TanhGrad(const float* g, const float* y, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += g[i] * (1.0f - y[i] * y[i]);
}

void LogEpsGrad(const float* g, const float* x, float eps, float* out,
                int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += g[i] * (1.0f / (x[i] + eps));
}

void SquareGrad(const float* g, const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += g[i] * (2.0f * x[i]);
}

void AbsGrad(const float* g, const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] += g[i] * (x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f));
  }
}

void ClipGrad(const float* g, const float* x, float lo, float hi, float* out,
              int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] += g[i] * ((x[i] > lo && x[i] < hi) ? 1.0f : 0.0f);
  }
}

void AddRowBroadcast(const float* a, const float* row, float* y, int64_t n,
                     int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) y[r * c + j] = a[r * c + j] + row[j];
  }
}

void MulRowBroadcast(const float* a, const float* row, float* y, int64_t n,
                     int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) y[r * c + j] = a[r * c + j] * row[j];
  }
}

void MulRowBroadcastAcc(const float* g, const float* row, float* out,
                        int64_t n, int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) out[r * c + j] += g[r * c + j] * row[j];
  }
}

void RowScale(const float* a, const float* s, float* y, int64_t n,
              int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    const float sv = s[r];
    for (int64_t j = 0; j < c; ++j) y[r * c + j] = a[r * c + j] * sv;
  }
}

void RowScaleAcc(const float* g, const float* s, float* out, int64_t n,
                 int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    const float sv = s[r];
    for (int64_t j = 0; j < c; ++j) out[r * c + j] += g[r * c + j] * sv;
  }
}

void RowDotAcc(const float* g, const float* x, float* out, int64_t n,
               int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    float acc = 0.0f;
    for (int64_t j = 0; j < c; ++j) acc += g[r * c + j] * x[r * c + j];
    out[r] += acc;
  }
}

void AddColBroadcastAcc(const float* g, float* out, int64_t n, int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) out[r * c + j] += g[r];
  }
}

void ColumnAcc(const float* g, float* out, int64_t n, int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) out[j] += g[r * c + j];
  }
}

void ColumnAccMul(const float* g, const float* x, float* out, int64_t n,
                  int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) out[j] += g[r * c + j] * x[r * c + j];
  }
}

void RowSoftmax(const float* a, float* y, int64_t n, int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < c; ++j) mx = std::max(mx, a[r * c + j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < c; ++j) {
      const float e = std::exp(a[r * c + j] - mx);
      y[r * c + j] = e;
      denom += e;
    }
    for (int64_t j = 0; j < c; ++j) y[r * c + j] /= denom;
  }
}

void RowSoftmaxGrad(const float* y, const float* g, float* out, int64_t n,
                    int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    float dot = 0.0f;
    for (int64_t j = 0; j < c; ++j) dot += g[r * c + j] * y[r * c + j];
    for (int64_t j = 0; j < c; ++j) {
      out[r * c + j] += y[r * c + j] * (g[r * c + j] - dot);
    }
  }
}

void RowLogSoftmax(const float* a, float* y, int64_t n, int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < c; ++j) mx = std::max(mx, a[r * c + j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < c; ++j) denom += std::exp(a[r * c + j] - mx);
    const float logz = mx + std::log(denom);
    for (int64_t j = 0; j < c; ++j) y[r * c + j] = a[r * c + j] - logz;
  }
}

void RowLogSoftmaxGrad(const float* y, const float* g, float* out, int64_t n,
                       int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    float gsum = 0.0f;
    for (int64_t j = 0; j < c; ++j) gsum += g[r * c + j];
    for (int64_t j = 0; j < c; ++j) {
      const float sm = std::exp(y[r * c + j]);
      out[r * c + j] += g[r * c + j] - sm * gsum;
    }
  }
}

void RowL2Normalize(const float* a, float eps, float* y, float* norms,
                    int64_t n, int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      const float v = a[r * c + j];
      acc += static_cast<double>(v) * v;
    }
    norms[r] = static_cast<float>(std::sqrt(acc + eps));
    for (int64_t j = 0; j < c; ++j) y[r * c + j] = a[r * c + j] / norms[r];
  }
}

void RowL2NormalizeGrad(const float* y, const float* g, const float* norms,
                        float* out, int64_t n, int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    float dot = 0.0f;
    for (int64_t j = 0; j < c; ++j) dot += g[r * c + j] * y[r * c + j];
    for (int64_t j = 0; j < c; ++j) {
      out[r * c + j] += (g[r * c + j] - y[r * c + j] * dot) / norms[r];
    }
  }
}

void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* y, float* xhat, float* inv_sigma,
                      int64_t n, int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    double mean = 0.0;
    for (int64_t j = 0; j < c; ++j) mean += x[r * c + j];
    mean /= c;
    double var = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      const double d = x[r * c + j] - mean;
      var += d * d;
    }
    var /= c;
    inv_sigma[r] = static_cast<float>(1.0 / std::sqrt(var + eps));
    for (int64_t j = 0; j < c; ++j) {
      const float xh = (x[r * c + j] - static_cast<float>(mean)) *
                       inv_sigma[r];
      xhat[r * c + j] = xh;
      y[r * c + j] = gamma[j] * xh + beta[j];
    }
  }
}

void LayerNormGradX(const float* g, const float* gamma, const float* xhat,
                    const float* inv_sigma, float* gx, int64_t n, int64_t c) {
  for (int64_t r = 0; r < n; ++r) {
    float mean_d = 0.0f;
    float mean_dx = 0.0f;
    for (int64_t j = 0; j < c; ++j) {
      const float d = gamma[j] * g[r * c + j];
      mean_d += d;
      mean_dx += d * xhat[r * c + j];
    }
    mean_d /= c;
    mean_dx /= c;
    for (int64_t j = 0; j < c; ++j) {
      const float d = gamma[j] * g[r * c + j];
      gx[r * c + j] += (d - mean_d - xhat[r * c + j] * mean_dx) *
                       inv_sigma[r];
    }
  }
}

void GatherRows(const float* a, const int64_t* indices, float* y, int64_t e,
                int64_t c) {
  for (int64_t i = 0; i < e; ++i) {
    std::memcpy(y + i * c, a + indices[i] * c,
                static_cast<size_t>(c) * sizeof(float));
  }
}

void ScatterAddRows(const float* g, const int64_t* indices, float* out,
                    int64_t e, int64_t c) {
  for (int64_t i = 0; i < e; ++i) {
    for (int64_t j = 0; j < c; ++j) {
      out[indices[i] * c + j] += g[i * c + j];
    }
  }
}

void GatherRowsAcc(const float* g, const int64_t* indices, float* out,
                   int64_t e, int64_t c) {
  for (int64_t i = 0; i < e; ++i) {
    for (int64_t j = 0; j < c; ++j) {
      out[i * c + j] += g[indices[i] * c + j];
    }
  }
}

void Transpose(const float* a, float* y, int64_t m, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) y[j * m + i] = a[i * n + j];
  }
}

void TransposeAcc(const float* g, float* out, int64_t m, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out[i * n + j] += g[j * m + i];
  }
}

// The coarse quantizer's per-centroid squared-L2 loop, verbatim; only a
// centroid's coordinates now sit k floats apart.
void SqDistColumns(const float* x, const float* cols, float* out,
                   int64_t dim, int64_t k) {
  for (int64_t j = 0; j < k; ++j) {
    float s = 0.0f;
    for (int64_t c = 0; c < dim; ++c) {
      const float diff = x[c] - cols[c * k + j];
      s += diff * diff;
    }
    out[j] = s;
  }
}

void MatMul(const float* a, const float* b, float* y, int64_t m, int64_t k,
            int64_t n) {
  if (m == 0 || n == 0) return;  // y is empty; memset must not get null
  std::memset(y, 0, static_cast<size_t>(m * n) * sizeof(float));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const float* br = b + p * n;
      float* yrow = y + i * n;
      for (int64_t j = 0; j < n; ++j) yrow[j] += av * br[j];
    }
  }
}

void MatMulGradA(const float* g, const float* b, float* ga, int64_t m,
                 int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float* grow = g + i * n;
      const float* brow = b + p * n;
      float acc = 0.0f;
      for (int64_t j = 0; j < n; ++j) acc += grow[j] * brow[j];
      ga[i * k + p] += acc;
    }
  }
}

void MatMulGradB(const float* g, const float* a, float* gb, int64_t m,
                 int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* grow = g + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      float* gbrow = gb + p * n;
      for (int64_t j = 0; j < n; ++j) gbrow[j] += av * grow[j];
    }
  }
}

}  // namespace desalign::tensor::kernels::reference
