#include "align/metrics.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "tensor/kernels/gemm.h"
#include "tensor/ops.h"

namespace desalign::align {

RankingMetrics MetricsFromSimilarity(const Tensor& sim) {
  DESALIGN_CHECK_EQ(sim.rows(), sim.cols());
  const int64_t n = sim.rows();
  RankingMetrics m;
  m.num_queries = n;
  for (int64_t i = 0; i < n; ++i) {
    const float truth = sim.At(i, i);
    int64_t rank = 1;
    for (int64_t j = 0; j < n; ++j) {
      if (j != i && sim.At(i, j) > truth) ++rank;
    }
    if (rank <= 1) m.h_at_1 += 1.0;
    if (rank <= 5) m.h_at_5 += 1.0;
    if (rank <= 10) m.h_at_10 += 1.0;
    m.mrr += 1.0 / static_cast<double>(rank);
  }
  if (n > 0) {
    m.h_at_1 /= n;
    m.h_at_5 /= n;
    m.h_at_10 /= n;
    m.mrr /= n;
  }
  return m;
}

namespace {

// out (epilogue) RowL2Normalize(a) * RowL2Normalize(b)^T.
void CosineSimilarityInto(const TensorPtr& a, const TensorPtr& b,
                          Tensor& out, tensor::kernels::GemmEpilogue epilogue,
                          float s = 1.0f) {
  DESALIGN_CHECK_EQ(a->cols(), b->cols());
  tensor::NoGradGuard no_grad;
  auto an = tensor::RowL2Normalize(a);
  auto bn = tensor::RowL2Normalize(b);
  tensor::kernels::MatMulTransB(an->data().data(), bn->data().data(),
                                out.data().data(), an->rows(), an->cols(),
                                bn->rows(), epilogue, s);
}

}  // namespace

TensorPtr CosineSimilarityMatrix(const TensorPtr& a, const TensorPtr& b) {
  auto sim = Tensor::CreateUninitialized(a->rows(), b->rows());
  CosineSimilarityInto(a, b, *sim, tensor::kernels::GemmEpilogue::kStore);
  return sim;
}

TensorPtr MeanCosineSimilarity(const std::vector<TensorPtr>& source_states,
                               const std::vector<int64_t>& source_rows,
                               const std::vector<TensorPtr>& target_states,
                               const std::vector<int64_t>& target_rows) {
  using tensor::kernels::GemmEpilogue;
  const size_t num_states = source_states.size();
  DESALIGN_CHECK_GT(num_states, 0u);
  DESALIGN_CHECK_EQ(num_states, target_states.size());
  tensor::NoGradGuard no_grad;
  auto mean = Tensor::CreateUninitialized(
      static_cast<int64_t>(source_rows.size()),
      static_cast<int64_t>(target_rows.size()));
  const float inv = 1.0f / static_cast<float>(num_states);
  for (size_t s = 0; s < num_states; ++s) {
    // The first state stores, the middle ones add and the last adds and
    // scales. With one state a plain store is already exact: 1.0f * x == x
    // for every x a sum of products can produce.
    const GemmEpilogue epilogue =
        s == 0                ? GemmEpilogue::kStore
        : s + 1 < num_states ? GemmEpilogue::kAdd
                              : GemmEpilogue::kAddScale;
    CosineSimilarityInto(tensor::GatherRows(source_states[s], source_rows),
                         tensor::GatherRows(target_states[s], target_rows),
                         *mean, epilogue, inv);
  }
  return mean;
}

void ApplyCsls(Tensor& sim, int k) {
  const int64_t n = sim.rows();
  const int64_t m = sim.cols();
  const int64_t kk = std::min<int64_t>(k, std::min(n, m));
  if (kk <= 0) return;
  std::vector<float> row_mean(n, 0.0f);
  std::vector<float> col_mean(m, 0.0f);
  std::vector<float> buf;
  for (int64_t i = 0; i < n; ++i) {
    buf.assign(sim.data().begin() + i * m, sim.data().begin() + (i + 1) * m);
    std::nth_element(buf.begin(), buf.begin() + (kk - 1), buf.end(),
                     std::greater<float>());
    float acc = 0.0f;
    for (int64_t j = 0; j < kk; ++j) acc += buf[j];
    row_mean[i] = acc / static_cast<float>(kk);
  }
  for (int64_t j = 0; j < m; ++j) {
    buf.resize(n);
    for (int64_t i = 0; i < n; ++i) buf[i] = sim.At(i, j);
    std::nth_element(buf.begin(), buf.begin() + (kk - 1), buf.end(),
                     std::greater<float>());
    float acc = 0.0f;
    for (int64_t i = 0; i < kk; ++i) acc += buf[i];
    col_mean[j] = acc / static_cast<float>(kk);
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      sim.At(i, j) = 2.0f * sim.At(i, j) - row_mean[i] - col_mean[j];
    }
  }
}

}  // namespace desalign::align
