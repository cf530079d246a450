#include "align/metrics.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace desalign::align {
namespace {

using tensor::Tensor;

TEST(MetricsTest, PerfectDiagonalGivesAllOnes) {
  auto sim = Tensor::FromData(3, 3, {1, 0, 0, 0, 1, 0, 0, 0, 1});
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_DOUBLE_EQ(m.h_at_1, 1.0);
  EXPECT_DOUBLE_EQ(m.h_at_10, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
  EXPECT_EQ(m.num_queries, 3);
}

TEST(MetricsTest, KnownRanksHandComputed) {
  // Row 0: truth 0.9 is the max -> rank 1.
  // Row 1: truth 0.1, both others higher -> rank 3.
  // Row 2: truth 0.5, one higher -> rank 2.
  auto sim = Tensor::FromData(3, 3,
                              {0.9f, 0.2f, 0.1f,
                               0.8f, 0.1f, 0.3f,
                               0.7f, 0.2f, 0.5f});
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_NEAR(m.h_at_1, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.h_at_5, 1.0, 1e-9);
  EXPECT_NEAR(m.mrr, (1.0 + 1.0 / 3.0 + 0.5) / 3.0, 1e-9);
}

TEST(MetricsTest, WorstCase) {
  // Diagonal is always the smallest.
  auto sim = Tensor::FromData(2, 2, {0.0f, 1.0f, 1.0f, 0.0f});
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_DOUBLE_EQ(m.h_at_1, 0.0);
  EXPECT_DOUBLE_EQ(m.mrr, 0.5);  // rank 2 both
}

TEST(MetricsTest, HAtKMonotone) {
  common::Rng rng(3);
  auto sim = Tensor::Create(20, 20);
  for (auto& v : sim->data()) v = rng.UniformF(0.0f, 1.0f);
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_LE(m.h_at_1, m.h_at_5);
  EXPECT_LE(m.h_at_5, m.h_at_10);
  EXPECT_GE(m.mrr, m.h_at_1 / 1.0 * 0.99);  // MRR >= H@1
}

TEST(CosineSimilarityTest, MatchesManual) {
  auto a = Tensor::FromData(1, 2, {1.0f, 0.0f});
  auto b = Tensor::FromData(2, 2, {1.0f, 0.0f, 0.0f, 1.0f});
  auto sim = CosineSimilarityMatrix(a, b);
  EXPECT_NEAR(sim->At(0, 0), 1.0f, 1e-5);
  EXPECT_NEAR(sim->At(0, 1), 0.0f, 1e-5);
}

TEST(CosineSimilarityTest, ScaleInvariant) {
  auto a = Tensor::FromData(1, 3, {1, 2, 3});
  auto b = Tensor::FromData(1, 3, {10, 20, 30});
  auto sim = CosineSimilarityMatrix(a, b);
  EXPECT_NEAR(sim->At(0, 0), 1.0f, 1e-5);
}

TEST(CosineSimilarityTest, BuildsNoAutogradGraph) {
  auto a = Tensor::FromData(1, 2, {1, 2}, /*requires_grad=*/true);
  auto sim = CosineSimilarityMatrix(a, a);
  EXPECT_TRUE(sim->parents().empty());
}

// The per-state loop decode ran before MeanCosineSimilarity, in public
// ops: gather, normalize, MatMul against the transpose, Add into the running
// sum, then Scale by 1/S.
TensorPtr MeanCosineSimilarityWithOps(const std::vector<TensorPtr>& src,
                                      const std::vector<int64_t>& src_rows,
                                      const std::vector<TensorPtr>& tgt,
                                      const std::vector<int64_t>& tgt_rows) {
  tensor::NoGradGuard no_grad;
  TensorPtr sum;
  for (size_t s = 0; s < src.size(); ++s) {
    auto an = tensor::RowL2Normalize(tensor::GatherRows(src[s], src_rows));
    auto bn = tensor::RowL2Normalize(tensor::GatherRows(tgt[s], tgt_rows));
    auto sim = tensor::MatMul(an, tensor::Transpose(bn));
    sum = sum ? tensor::Add(sum, sim) : sim;
  }
  return tensor::Scale(sum, 1.0f / static_cast<float>(src.size()));
}

TEST(MeanCosineSimilarityTest, BitIdenticalToPerStateOps) {
  common::Rng rng(41);
  const auto random_state = [&rng](int64_t rows, int64_t cols) {
    auto t = Tensor::Create(rows, cols);
    for (auto& v : t->data()) v = rng.UniformF(-1.0f, 1.0f);
    for (int64_t c = 0; c < cols; ++c) t->At(3, c) = 0.0f;  // normalizes to 0
    return t;
  };
  const auto random_rows = [&rng](int64_t count, int64_t bound) {
    std::vector<int64_t> rows(static_cast<size_t>(count));
    for (auto& r : rows) r = rng.UniformInt(bound);
    rows[0] = 3;
    return rows;
  };
  for (const int num_states : {1, 2, 9}) {
    std::vector<TensorPtr> src;
    std::vector<TensorPtr> tgt;
    for (int s = 0; s < num_states; ++s) {
      src.push_back(random_state(60, 24));
      tgt.push_back(random_state(50, 24));
    }
    const auto src_rows = random_rows(37, 60);
    const auto tgt_rows = random_rows(29, 50);
    const auto want = MeanCosineSimilarityWithOps(src, src_rows, tgt, tgt_rows);
    struct Config {
      int threads;
      int64_t grain;
    };
    for (const Config config : {Config{1, 0}, Config{4, 0}, Config{4, 1}}) {
      common::ThreadPool::SetGlobalThreadCount(config.threads);
      tensor::kernels::SetForcedGrainForTesting(config.grain);
      const auto got = MeanCosineSimilarity(src, src_rows, tgt, tgt_rows);
      tensor::kernels::SetForcedGrainForTesting(0);
      common::ThreadPool::SetGlobalThreadCount(0);
      ASSERT_EQ(got->rows(), 37);
      ASSERT_EQ(got->cols(), 29);
      EXPECT_EQ(std::memcmp(got->data().data(), want->data().data(),
                            want->data().size() * sizeof(float)),
                0)
          << num_states << " states, " << config.threads << " threads, grain "
          << config.grain;
    }
  }
}

TEST(CslsTest, PreservesArgmaxStructureOnSymmetricScores) {
  // CSLS should not destroy an unambiguous diagonal.
  auto sim = Tensor::FromData(3, 3,
                              {0.9f, 0.1f, 0.1f,
                               0.1f, 0.9f, 0.1f,
                               0.1f, 0.1f, 0.9f});
  ApplyCsls(*sim, 1);
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_DOUBLE_EQ(m.h_at_1, 1.0);
}

TEST(CslsTest, PenalizesHubColumns) {
  // Column 1 is a "hub": highly similar to every row. Its large
  // neighbourhood mean is subtracted, demoting it relative to the specific
  // match in column 0.
  auto sim = Tensor::FromData(3, 3,
                              {0.75f, 0.80f, 0.30f,
                               0.20f, 0.82f, 0.30f,
                               0.20f, 0.81f, 0.78f});
  // Row 0's best raw match is the hub column 1 (0.80 > 0.75) — wrong.
  EXPECT_GT(sim->At(0, 1), sim->At(0, 0));
  ApplyCsls(*sim, 3);
  EXPECT_GT(sim->At(0, 0), sim->At(0, 1));
}

}  // namespace
}  // namespace desalign::align
