#include "index/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "serve/embedding_store.h"

namespace desalign::index {
namespace {

serve::EmbeddingStore RandomStore(int64_t rows, int64_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(rows * dim));
  for (auto& v : data) v = rng.UniformF(-1.0f, 1.0f);
  return serve::EmbeddingStore::FromRows(rows, dim, std::move(data));
}

TEST(KMeansTest, CentroidCountClampedToRows) {
  const auto store = RandomStore(5, 4, 1);
  KMeansOptions options;
  options.num_centroids = 64;
  const auto model = TrainKMeans(store.Snapshot(), options);
  EXPECT_EQ(model.num_centroids, 5);
  EXPECT_EQ(model.dim, 4);
  EXPECT_EQ(model.centroids.size(), 20u);
}

TEST(KMeansTest, EmptyTableYieldsEmptyModel) {
  const serve::EmbeddingStore store;
  const auto model = TrainKMeans(store.Snapshot(), KMeansOptions{});
  EXPECT_EQ(model.num_centroids, 0);
  EXPECT_TRUE(model.centroids.empty());
}

TEST(KMeansTest, BitIdenticalAcrossThreadCounts) {
  // The assignment step is the only parallel piece; it is per-row
  // independent and the update reduction is serial in row order, so the
  // trained centroids must be byte-equal no matter the pool size.
  const auto store = RandomStore(300, 9, 7);
  std::vector<float> reference;
  for (const int threads : {1, 2, 5}) {
    common::ThreadPool pool(threads);
    KMeansOptions options;
    options.num_centroids = 17;
    options.iterations = 6;
    options.pool = &pool;
    const auto model = TrainKMeans(store.Snapshot(), options);
    ASSERT_EQ(model.num_centroids, 17);
    if (reference.empty()) {
      reference = model.centroids;
    } else {
      EXPECT_EQ(model.centroids, reference) << threads << " threads";
    }
  }
}

TEST(KMeansTest, SampledTrainingIsDeterministic) {
  const auto store = RandomStore(500, 6, 11);
  KMeansOptions options;
  options.num_centroids = 8;
  options.sample_rows = 128;
  const auto a = TrainKMeans(store.Snapshot(), options);
  const auto b = TrainKMeans(store.Snapshot(), options);
  EXPECT_EQ(a.centroids, b.centroids);
  // A different seed must (generically) pick different initial rows.
  options.seed = 999;
  const auto c = TrainKMeans(store.Snapshot(), options);
  EXPECT_NE(a.centroids, c.centroids);
}

TEST(KMeansTest, NearestCentroidTiesBreakTowardSmallerId) {
  // Two identical centroids: every query ties exactly; id 0 must win.
  KMeansModel model;
  model.num_centroids = 3;
  model.dim = 2;
  // Coordinate-major: centroids (1, 0), (1, 0) and (0, 1).
  model.centroids = {1.0f, 1.0f, 0.0f, 0.0f, 0.0f, 1.0f};
  std::vector<float> distances(3);
  const std::vector<float> q = {1.0f, 0.0f};
  EXPECT_EQ(NearestCentroid(model, q.data(), distances.data()), 0);
  const std::vector<float> r = {0.0f, 1.0f};
  EXPECT_EQ(NearestCentroid(model, r.data(), distances.data()), 2);
}

TEST(KMeansTest, AssignmentPartitionsAllRows) {
  const auto store = RandomStore(120, 5, 3);
  KMeansOptions options;
  options.num_centroids = 10;
  const auto model = TrainKMeans(store.Snapshot(), options);
  const auto snap = store.Snapshot();
  std::vector<int64_t> counts(10, 0);
  std::vector<float> distances(10);
  for (int64_t r = 0; r < snap.size(); ++r) {
    const int64_t c = NearestCentroid(model, snap.row(r), distances.data());
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 10);
    ++counts[static_cast<size_t>(c)];
  }
  int64_t total = 0;
  for (const int64_t c : counts) total += c;
  EXPECT_EQ(total, 120);
}

TEST(KMeansTest, MoreCentroidsThanDistinctRowsStaysFinite) {
  // 4 distinct rows duplicated 10x with k=8: some cells go empty and must
  // keep their initial centroid instead of collapsing to NaN.
  std::vector<float> data;
  for (int rep = 0; rep < 10; ++rep) {
    for (const float base : {1.0f, 2.0f, 3.0f, 4.0f}) {
      data.push_back(base);
      data.push_back(-base);
    }
  }
  const auto store = serve::EmbeddingStore::FromRows(40, 2, std::move(data));
  KMeansOptions options;
  options.num_centroids = 8;
  const auto model = TrainKMeans(store.Snapshot(), options);
  EXPECT_EQ(model.num_centroids, 8);
  for (const float v : model.centroids) EXPECT_TRUE(std::isfinite(v));
}

TEST(KMeansTest, NonFiniteRowDoesNotCollapseCells) {
  // A NaN row must neither seed nor enter a centroid's sum: a NaN centroid
  // 0 would win every assignment (no distance compares less than NaN), so
  // the next pass would put every row into its cell.
  constexpr int64_t kRows = 4000;
  constexpr int64_t kDim = 32;
  common::Rng rng(5);
  std::vector<float> data(static_cast<size_t>(kRows * kDim));
  for (auto& v : data) v = rng.UniformF(-1.0f, 1.0f);
  data[1234 * kDim + 7] = std::nanf("");
  const auto store =
      serve::EmbeddingStore::FromRows(kRows, kDim, std::move(data));
  const auto snap = store.Snapshot();
  KMeansOptions options;
  options.num_centroids = 64;
  const auto model = TrainKMeans(snap, options);
  ASSERT_EQ(model.num_centroids, 64);
  for (const float v : model.centroids) ASSERT_TRUE(std::isfinite(v));
  std::vector<int64_t> counts(64, 0);
  std::vector<float> distances(64);
  for (int64_t r = 0; r < kRows; ++r) {
    ++counts[static_cast<size_t>(
        NearestCentroid(model, snap.row(r), distances.data()))];
  }
  EXPECT_LE(*std::max_element(counts.begin(), counts.end()), kRows / 2);
}

TEST(KMeansTest, CellCountShrinksToFiniteRows) {
  // Three finite rows of five: only they can seed, so only three cells.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> data = {1.0f, 0.0f, std::nanf(""), 1.0f, 0.0f, 1.0f,
                             inf,  2.0f, -1.0f,         0.5f};
  const auto store = serve::EmbeddingStore::FromRows(5, 2, std::move(data));
  KMeansOptions options;
  options.num_centroids = 4;
  const auto model = TrainKMeans(store.Snapshot(), options);
  EXPECT_EQ(model.num_centroids, 3);
  for (const float v : model.centroids) EXPECT_TRUE(std::isfinite(v));

  // No finite row at all: one cell at the origin, which every row maps to.
  const auto nan_store = serve::EmbeddingStore::FromRows(
      2, 2, {std::nanf(""), 1.0f, inf, 0.0f});
  const auto nan_model = TrainKMeans(nan_store.Snapshot(), options);
  EXPECT_EQ(nan_model.num_centroids, 1);
  EXPECT_EQ(nan_model.centroids, std::vector<float>(2, 0.0f));
  float distance = 0.0f;
  EXPECT_EQ(NearestCentroid(nan_model, nan_store.Snapshot().row(0),
                            &distance),
            0);
}

}  // namespace
}  // namespace desalign::index
