#include "index/kmeans.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "tensor/kernels/rowwise.h"

namespace desalign::index {

namespace {

int64_t ArgMin(const float* distances, int64_t k) {
  int64_t best = 0;
  float best_dist = distances[0];
  for (int64_t c = 1; c < k; ++c) {
    // Strictly-less: on an exact distance tie the earlier (smaller id)
    // centroid wins, matching the probe stage's ordering contract.
    if (distances[c] < best_dist) {
      best = c;
      best_dist = distances[c];
    }
  }
  return best;
}

bool IsFinite(const float* row, int64_t dim) {
  for (int64_t j = 0; j < dim; ++j) {
    if (!std::isfinite(row[j])) return false;
  }
  return true;
}

}  // namespace

void CentroidDistances(const KMeansModel& model, const float* x,
                       float* distances) {
  tensor::kernels::SqDistColumns(x, model.centroids.data(), distances,
                                 model.dim, model.num_centroids);
}

int64_t NearestCentroid(const KMeansModel& model, const float* x,
                        float* distances) {
  DESALIGN_CHECK_GT(model.num_centroids, 0);
  CentroidDistances(model, x, distances);
  return ArgMin(distances, model.num_centroids);
}

KMeansModel TrainKMeans(const serve::EmbeddingSnapshot& table,
                        const KMeansOptions& options) {
  KMeansModel model;
  model.dim = table.dim();
  const int64_t n = table.size();
  if (n <= 0) return model;
  const int64_t dim = table.dim();
  int64_t k = std::min(std::max<int64_t>(options.num_centroids, 1), n);

  common::Rng rng(options.seed);
  // Training subset: a deterministic sample caps the per-iteration cost;
  // the quantizer only has to carve the space into balanced cells, which
  // a sample does as well as the full corpus.
  std::vector<int64_t> train_rows;
  if (options.sample_rows > 0 && options.sample_rows < n) {
    const int64_t sample = std::max(options.sample_rows, k);
    train_rows = rng.SampleWithoutReplacement(n, std::min(sample, n));
    std::sort(train_rows.begin(), train_rows.end());
  } else {
    train_rows.resize(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) train_rows[static_cast<size_t>(r)] = r;
  }
  // A NaN or an infinity in a training row would reach a centroid, by
  // seeding it or through the update sums, and make it non-finite. A NaN
  // centroid 0 then takes every row: the argmin starts at centroid 0 and
  // no distance compares less than NaN. So such rows neither seed nor
  // move a centroid. Rows are read through RowAsFloat so quantized tables
  // train the same quantizer everywhere (dequantization is fixed-order
  // scalar math).
  std::vector<float> scratch(static_cast<size_t>(dim));
  std::erase_if(train_rows, [&](int64_t r) {
    return !IsFinite(table.RowAsFloat(r, scratch.data()), dim);
  });
  const int64_t t = static_cast<int64_t>(train_rows.size());
  k = std::min(k, std::max<int64_t>(t, 1));
  model.num_centroids = k;
  model.centroids.assign(static_cast<size_t>(dim * k), 0.0f);
  if (t == 0) return model;
  float* centroids = model.centroids.data();

  // Initial centroids: k distinct training rows drawn from the seeded Rng,
  // each written into its column of the coordinate-major table.
  const std::vector<int64_t> init = rng.SampleWithoutReplacement(t, k);
  for (int64_t c = 0; c < k; ++c) {
    const float* src = table.RowAsFloat(
        train_rows[static_cast<size_t>(init[c])], scratch.data());
    for (int64_t p = 0; p < dim; ++p) centroids[p * k + c] = src[p];
  }

  common::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : common::ThreadPool::Global();
  std::vector<int64_t> assign(static_cast<size_t>(t));
  std::vector<double> sums(static_cast<size_t>(k * dim));
  std::vector<int64_t> counts(static_cast<size_t>(k));
  const int64_t grain =
      std::max<int64_t>(1, common::ThreadPool::GrainForCost(k * dim));

  for (int iter = 0; iter < options.iterations; ++iter) {
    // Assignment: per-row and order-free, so the pool may split it any
    // way — assign[i] is a pure function of (row i, centroids).
    pool.ParallelFor(
        0, t,
        [&](int64_t begin, int64_t end) {
          std::vector<float> chunk_scratch(static_cast<size_t>(dim));
          std::vector<float> distances(static_cast<size_t>(k));
          for (int64_t i = begin; i < end; ++i) {
            assign[static_cast<size_t>(i)] = NearestCentroid(
                model,
                table.RowAsFloat(train_rows[static_cast<size_t>(i)],
                                 chunk_scratch.data()),
                distances.data());
          }
        },
        grain);

    // Update: serial accumulation in ascending row order. This is the
    // deterministic reduction — O(t * dim) adds, cheap next to the
    // O(t * k * dim) assignment above, and the double accumulators make
    // the final float cast stable.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (int64_t i = 0; i < t; ++i) {
      const int64_t c = assign[static_cast<size_t>(i)];
      const float* row = table.RowAsFloat(
          train_rows[static_cast<size_t>(i)], scratch.data());
      double* sum = sums.data() + c * dim;
      for (int64_t j = 0; j < dim; ++j) sum[j] += row[j];
      ++counts[static_cast<size_t>(c)];
    }
    for (int64_t c = 0; c < k; ++c) {
      const int64_t count = counts[static_cast<size_t>(c)];
      if (count == 0) continue;  // empty cell keeps its previous centroid
      const double inv = 1.0 / static_cast<double>(count);
      const double* sum = sums.data() + c * dim;
      for (int64_t j = 0; j < dim; ++j) {
        centroids[j * k + c] = static_cast<float>(sum[j] * inv);
      }
    }
  }
  return model;
}

}  // namespace desalign::index
