#include "bench/kernel_bench.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <utility>

#include "bench/perf_bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/kernels/elementwise.h"
#include "tensor/kernels/gemm.h"
#include "tensor/kernels/rowwise.h"
#include "tensor/sparse.h"
#include "testing/kernel_reference.h"

namespace desalign::bench {

namespace {

using tensor::CsrMatrix;
using tensor::Triplet;
using BenchFn = std::function<void()>;

double MeasureNs(int repeats, const BenchFn& fn) {
  fn();  // warm-up: faults pages, primes caches and the buffer pool
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < std::max(1, repeats); ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                       t0)
                      .count()));
  }
  return best;
}

std::vector<float> RandomVec(common::Rng& rng, int64_t n, float lo = -1.0f,
                             float hi = 1.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.UniformF(lo, hi);
  return v;
}

// Pre-kernel-layer CsrMatrix::FromTriplets: a global (row, col) sort plus a
// dedup sweep. Kept here as the baseline the one-pass counting-sort builder
// is measured against.
void ReferenceFromTriplets(int64_t rows, std::vector<Triplet> triplets,
                           std::vector<int64_t>* row_ptr,
                           std::vector<int64_t>* col_idx,
                           std::vector<float>* values) {
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  col_idx->clear();
  values->clear();
  std::vector<int64_t> row_of;
  for (const auto& t : triplets) {
    if (!col_idx->empty() && row_of.back() == t.row &&
        col_idx->back() == t.col) {
      values->back() += t.value;
    } else {
      row_of.push_back(t.row);
      col_idx->push_back(t.col);
      values->push_back(t.value);
    }
  }
  row_ptr->assign(static_cast<size_t>(rows) + 1, 0);
  for (int64_t r : row_of) ++(*row_ptr)[static_cast<size_t>(r) + 1];
  for (int64_t r = 0; r < rows; ++r) (*row_ptr)[r + 1] += (*row_ptr)[r];
}

// Serial CSR * dense, the shape of the pre-parallel Multiply loop.
void ReferenceSpmm(const CsrMatrix& m, const float* x, int64_t k, float* y) {
  std::memset(y, 0, static_cast<size_t>(m.rows() * k) * sizeof(float));
  for (int64_t r = 0; r < m.rows(); ++r) {
    float* yr = y + r * k;
    for (int64_t e = m.row_ptr()[r]; e < m.row_ptr()[r + 1]; ++e) {
      const float v = m.values()[e];
      const float* xr = x + m.col_idx()[e] * k;
      for (int64_t j = 0; j < k; ++j) yr[j] += v * xr[j];
    }
  }
}

class Runner {
 public:
  Runner(const KernelBenchOptions& options, KernelBenchReport* report)
      : options_(options), report_(report) {}

  // Measures `ref_fn` serially, then `kernel_fn` for every
  // (thread count, ISA) combination. `norm_elems` normalizes wall time to
  // ns/elem (elements for elementwise ops, m*k*n for matmul, nnz*k for
  // SpMM).
  void Case(const std::string& op, int64_t rows, int64_t cols,
            double norm_elems, const BenchFn& ref_fn,
            const BenchFn& kernel_fn) {
    using namespace tensor::kernels;
    KernelBenchCase c;
    c.op = op;
    c.rows = rows;
    c.cols = cols;
    common::ThreadPool::SetGlobalThreadCount(1);
    c.ref_ns_per_elem = MeasureNs(options_.repeats, ref_fn) / norm_elems;
    for (int threads : options_.thread_counts) {
      common::ThreadPool::SetGlobalThreadCount(threads);
      for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kAvx2}) {
        if (isa == IsaLevel::kAvx2 && !CpuSupportsAvx2()) continue;
        SetIsaOverride(isa, /*has_override=*/true);
        KernelBenchVariant v;
        v.threads = threads;
        v.isa = IsaName(isa);
        v.ns_per_elem = MeasureNs(options_.repeats, kernel_fn) / norm_elems;
        v.speedup =
            v.ns_per_elem > 0.0 ? c.ref_ns_per_elem / v.ns_per_elem : 0.0;
        c.variants.push_back(std::move(v));
      }
      SetIsaOverride(IsaLevel::kScalar, /*has_override=*/false);
    }
    report_->cases.push_back(std::move(c));
  }

 private:
  const KernelBenchOptions& options_;
  KernelBenchReport* report_;
};

}  // namespace

double KernelBenchCase::BestSpeedup() const {
  double best = 0.0;
  for (const auto& v : variants) best = std::max(best, v.speedup);
  return best;
}

std::string KernelBenchReport::ToJson() const {
  std::ostringstream os;
  os << "{\"schema\":\"desalign.kernel_bench.v3\",\"cases\":[";
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    if (i) os << ",";
    os << "{\"op\":\"" << c.op << "\",\"rows\":" << c.rows
       << ",\"cols\":" << c.cols
       << ",\"ref_ns_per_elem\":" << JsonNum(c.ref_ns_per_elem)
       << ",\"variants\":[";
    for (size_t j = 0; j < c.variants.size(); ++j) {
      const auto& v = c.variants[j];
      if (j) os << ",";
      os << "{\"threads\":" << v.threads << ",\"isa\":\"" << v.isa
         << "\",\"ns_per_elem\":" << JsonNum(v.ns_per_elem)
         << ",\"speedup\":" << JsonNum(v.speedup) << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

KernelBenchReport RunKernelBench(const KernelBenchOptions& options) {
  using namespace tensor::kernels;
  const int saved_threads = common::ThreadPool::Global().num_threads();
  KernelBenchReport report;
  Runner runner(options, &report);
  common::Rng rng(20240805);

  const bool smoke = options.smoke;

  // ---- Elementwise over a flat span ----
  {
    const int64_t n = smoke ? (1 << 16) : (1 << 20);
    const auto a = RandomVec(rng, n);
    const auto b = RandomVec(rng, n, 0.5f, 1.5f);
    std::vector<float> y(static_cast<size_t>(n));
    runner.Case(
        "add", n, 1, static_cast<double>(n),
        [&] { reference::Add(a.data(), b.data(), y.data(), n); },
        [&] { Add(a.data(), b.data(), y.data(), n); });
    runner.Case(
        "mul", n, 1, static_cast<double>(n),
        [&] { reference::Mul(a.data(), b.data(), y.data(), n); },
        [&] { Mul(a.data(), b.data(), y.data(), n); });
    runner.Case(
        "axpy", n, 1, static_cast<double>(n),
        [&] { reference::Axpy(0.5f, a.data(), y.data(), n); },
        [&] { Axpy(0.5f, a.data(), y.data(), n); });
    runner.Case(
        "relu", n, 1, static_cast<double>(n),
        [&] { reference::Relu(a.data(), y.data(), n); },
        [&] { Relu(a.data(), y.data(), n); });
    runner.Case(
        "sigmoid", n, 1, static_cast<double>(n),
        [&] { reference::Sigmoid(a.data(), y.data(), n); },
        [&] { Sigmoid(a.data(), y.data(), n); });
  }

  // ---- MatMul forward + backward: a cube, then the matrix-vector (n = 1)
  // GAT edge-attention projection at the train workload's 22 838 edges x
  // 16 head dims ----
  const auto matmul_cases = [&](const std::string& prefix, int64_t m,
                                int64_t k, int64_t n) {
    const auto a = RandomVec(rng, m * k);
    const auto b = RandomVec(rng, k * n);
    const auto g = RandomVec(rng, m * n);
    std::vector<float> y(static_cast<size_t>(m * n));
    std::vector<float> ga(static_cast<size_t>(m * k));
    std::vector<float> gb(static_cast<size_t>(k * n));
    const double ops = static_cast<double>(m) * k * n;
    runner.Case(
        prefix + "_fwd", m, n, ops,
        [&] { reference::MatMul(a.data(), b.data(), y.data(), m, k, n); },
        [&] { MatMul(a.data(), b.data(), y.data(), m, k, n); });
    runner.Case(
        prefix + "_grad_a", m, k, ops,
        [&] {
          std::fill(ga.begin(), ga.end(), 0.0f);
          reference::MatMulGradA(g.data(), b.data(), ga.data(), m, k, n);
        },
        [&] {
          std::fill(ga.begin(), ga.end(), 0.0f);
          MatMulGradA(g.data(), b.data(), ga.data(), m, k, n);
        });
    runner.Case(
        prefix + "_grad_b", k, n, ops,
        [&] {
          std::fill(gb.begin(), gb.end(), 0.0f);
          reference::MatMulGradB(g.data(), a.data(), gb.data(), m, k, n);
        },
        [&] {
          std::fill(gb.begin(), gb.end(), 0.0f);
          MatMulGradB(g.data(), a.data(), gb.data(), m, k, n);
        });
  };
  matmul_cases("matmul", smoke ? 48 : 512, smoke ? 32 : 512,
               smoke ? 48 : 512);
  matmul_cases("matmul_gemv", smoke ? 512 : 22838, 16, 1);

  // ---- Decode's per-state similarity GEMM, a * b^T over 1400 test pairs x
  // 128-wide states, against the reference transpose + MatMul it replaced.
  // The smoke shape leaves a partial row block and a partial panel. ----
  {
    const int64_t m = smoke ? 70 : 1400;
    const int64_t k = smoke ? 32 : 128;
    const int64_t n = m;
    const auto a = RandomVec(rng, m * k);
    const auto b = RandomVec(rng, n * k);
    std::vector<float> bt(static_cast<size_t>(k * n));
    std::vector<float> c(static_cast<size_t>(m * n));
    runner.Case(
        "matmul_transb", m, n, static_cast<double>(m) * k * n,
        [&] {
          reference::Transpose(b.data(), bt.data(), n, k);
          reference::MatMul(a.data(), bt.data(), c.data(), m, k, n);
        },
        [&] {
          MatMulTransB(a.data(), b.data(), c.data(), m, k, n,
                       GemmEpilogue::kStore);
        });
  }

  // ---- Rowwise ----
  {
    const int64_t n = smoke ? 256 : 4096;
    const int64_t c = smoke ? 64 : 256;
    const auto x = RandomVec(rng, n * c);
    const auto g = RandomVec(rng, n * c);
    const auto gamma = RandomVec(rng, c, 0.5f, 1.5f);
    const auto beta = RandomVec(rng, c);
    std::vector<float> y(static_cast<size_t>(n * c));
    std::vector<float> xhat(static_cast<size_t>(n * c));
    std::vector<float> inv_sigma(static_cast<size_t>(n));
    std::vector<float> gx(static_cast<size_t>(n * c));
    std::vector<float> col_out(static_cast<size_t>(c));
    const double elems = static_cast<double>(n) * c;
    runner.Case(
        "layernorm_fwd", n, c, elems,
        [&] {
          reference::LayerNormForward(x.data(), gamma.data(), beta.data(),
                                      1e-5f, y.data(), xhat.data(),
                                      inv_sigma.data(), n, c);
        },
        [&] {
          LayerNormForward(x.data(), gamma.data(), beta.data(), 1e-5f,
                           y.data(), xhat.data(), inv_sigma.data(), n, c);
        });
    runner.Case(
        "layernorm_grad_x", n, c, elems,
        [&] {
          std::fill(gx.begin(), gx.end(), 0.0f);
          reference::LayerNormGradX(g.data(), gamma.data(), xhat.data(),
                                    inv_sigma.data(), gx.data(), n, c);
        },
        [&] {
          std::fill(gx.begin(), gx.end(), 0.0f);
          LayerNormGradX(g.data(), gamma.data(), xhat.data(),
                         inv_sigma.data(), gx.data(), n, c);
        });
    runner.Case(
        "row_softmax", n, c, elems,
        [&] { reference::RowSoftmax(x.data(), y.data(), n, c); },
        [&] { RowSoftmax(x.data(), y.data(), n, c); });
    runner.Case(
        "row_l2normalize", n, c, elems,
        [&] {
          reference::RowL2Normalize(x.data(), 1e-12f, y.data(),
                                    inv_sigma.data(), n, c);
        },
        [&] {
          RowL2Normalize(x.data(), 1e-12f, y.data(), inv_sigma.data(), n, c);
        });
    runner.Case(
        "add_row_broadcast", n, c, elems,
        [&] {
          reference::AddRowBroadcast(x.data(), gamma.data(), y.data(), n, c);
        },
        [&] { AddRowBroadcast(x.data(), gamma.data(), y.data(), n, c); });
    runner.Case(
        "column_acc", n, c, elems,
        [&] {
          std::fill(col_out.begin(), col_out.end(), 0.0f);
          reference::ColumnAcc(g.data(), col_out.data(), n, c);
        },
        [&] {
          std::fill(col_out.begin(), col_out.end(), 0.0f);
          ColumnAcc(g.data(), col_out.data(), n, c);
        });

    std::vector<int64_t> indices(static_cast<size_t>(n));
    for (auto& idx : indices) idx = rng.UniformInt(n);
    runner.Case(
        "gather_rows", n, c, elems,
        [&] { reference::GatherRows(x.data(), indices.data(), y.data(), n, c); },
        [&] { GatherRows(x.data(), indices.data(), y.data(), n, c); });
    runner.Case(
        "scatter_add_rows", n, c, elems,
        [&] {
          std::fill(gx.begin(), gx.end(), 0.0f);
          reference::ScatterAddRows(g.data(), indices.data(), gx.data(), n,
                                    c);
        },
        [&] {
          std::fill(gx.begin(), gx.end(), 0.0f);
          ScatterAddRows(g.data(), indices.data(), gx.data(), n, c);
        });
  }

  // ---- Coarse-quantizer distances: one k-means assignment pass over the
  // serve-ivf table, 20 000 rows x 128 dims against its 142 centroids.
  // Rows are split across the pool as TrainKMeans splits them. ----
  {
    const int64_t rows = smoke ? 2000 : 20000;
    const int64_t dim = 128;
    const int64_t k = 142;
    const auto x = RandomVec(rng, rows * dim);
    const auto cols = RandomVec(rng, dim * k);
    std::vector<float> out(static_cast<size_t>(rows * k));
    runner.Case(
        "sqdist_columns", rows, k, static_cast<double>(rows * k * dim),
        [&] {
          for (int64_t r = 0; r < rows; ++r) {
            reference::SqDistColumns(x.data() + r * dim, cols.data(),
                                     out.data() + r * k, dim, k);
          }
        },
        [&] {
          common::ThreadPool::Global().ParallelFor(
              0, rows,
              [&](int64_t rb, int64_t re) {
                for (int64_t r = rb; r < re; ++r) {
                  SqDistColumns(x.data() + r * dim, cols.data(),
                                out.data() + r * k, dim, k);
                }
              },
              common::ThreadPool::GrainForCost(k * dim));
        });
  }

  // ---- Sparse (CSR) setup and SpMM ----
  {
    const int64_t nodes = smoke ? 500 : 20000;
    const int64_t degree = smoke ? 4 : 8;
    const int64_t k = smoke ? 8 : 64;
    std::vector<Triplet> triplets;
    triplets.reserve(static_cast<size_t>(nodes * degree));
    for (int64_t r = 0; r < nodes; ++r) {
      for (int64_t d = 0; d < degree; ++d) {
        triplets.push_back({r, rng.UniformInt(nodes),
                            rng.UniformF(0.1f, 1.0f)});
      }
    }
    const auto csr = CsrMatrix::FromTriplets(nodes, nodes, triplets);
    const double nnz = static_cast<double>(csr->nnz());
    std::vector<int64_t> ref_row_ptr;
    std::vector<int64_t> ref_col_idx;
    std::vector<float> ref_values;
    runner.Case(
        "csr_from_triplets", nodes, nodes, nnz,
        [&] {
          ReferenceFromTriplets(nodes, triplets, &ref_row_ptr, &ref_col_idx,
                                &ref_values);
        },
        [&] { CsrMatrix::FromTriplets(nodes, nodes, triplets); });
    runner.Case(
        "csr_transpose", nodes, nodes, nnz,
        [&] {
          // Pre-kernel-layer Transpose: round-trip through COO + sort.
          std::vector<Triplet> t;
          t.reserve(static_cast<size_t>(csr->nnz()));
          for (int64_t r = 0; r < csr->rows(); ++r) {
            for (int64_t e = csr->row_ptr()[r]; e < csr->row_ptr()[r + 1];
                 ++e) {
              t.push_back({csr->col_idx()[e], r, csr->values()[e]});
            }
          }
          CsrMatrix::FromTriplets(csr->cols(), csr->rows(), std::move(t));
        },
        [&] { csr->Transpose(); });
    const auto dense = RandomVec(rng, nodes * k);
    std::vector<float> out(static_cast<size_t>(nodes * k));
    runner.Case(
        "spmm", nodes, k, nnz * static_cast<double>(k),
        [&] { ReferenceSpmm(*csr, dense.data(), k, out.data()); },
        [&] { csr->Multiply(dense.data(), k, out.data()); });
  }

  common::ThreadPool::SetGlobalThreadCount(saved_threads);
  SetIsaOverride(IsaLevel::kScalar, /*has_override=*/false);
  return report;
}

}  // namespace desalign::bench
