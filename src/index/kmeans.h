#ifndef DESALIGN_INDEX_KMEANS_H_
#define DESALIGN_INDEX_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "serve/embedding_store.h"

namespace desalign::index {

/// Configuration for the coarse quantizer. Every field that influences
/// the result is explicit — there is no hidden state — so the same
/// (table, options) pair always trains bit-identical centroids.
struct KMeansOptions {
  int64_t num_centroids = 16;  ///< clamped to [1, finite rows]; see TrainKMeans
  /// Fixed Lloyd iteration count — no convergence test, because an
  /// epsilon-based stop would make the trained quantizer depend on float
  /// noise. Diminishing returns past ~10 for coarse quantization.
  int iterations = 8;
  uint64_t seed = common::Rng::kDefaultSeed;
  /// Rows used for training; 0 = all rows. Capping keeps build time flat
  /// as the table grows — centroid quality needs a sample, not the corpus.
  int64_t sample_rows = 0;
  common::ThreadPool* pool = nullptr;  ///< null = ThreadPool::Global()
};

/// A trained coarse quantizer. Immutable after TrainKMeans returns.
///
/// `centroids` is coordinate-major, `dim` x `num_centroids`: coordinate p
/// of centroid c is `centroids[p * num_centroids + c]`. Each coordinate of
/// every centroid is one contiguous span, so one pass of
/// tensor::kernels::SqDistColumns scores a row against all centroids with
/// one vector lane per centroid.
struct KMeansModel {
  int64_t num_centroids = 0;
  int64_t dim = 0;
  std::vector<float> centroids;
};

/// Squared L2 distance from `x` (dim floats) to every centroid, written to
/// `distances` (num_centroids floats). Each distance is one sum from +0.0f
/// over ascending coordinates, so its bits do not depend on the ISA or the
/// thread count.
void CentroidDistances(const KMeansModel& model, const float* x,
                       float* distances);

/// Nearest centroid of `x` by squared L2 distance, scanning centroids in
/// ascending id order with a strictly-less update — exact score ties
/// break toward the smaller centroid id, the same tie rule the probe
/// stage uses, so assignment and probing agree bit-for-bit. `distances`
/// is caller scratch of num_centroids floats; it is left holding
/// CentroidDistances(model, x).
int64_t NearestCentroid(const KMeansModel& model, const float* x,
                        float* distances);

/// Deterministic Lloyd's k-means over the rows of `table`.
///
/// Determinism contract (tested across thread counts):
///  - initial centroids are `num_centroids` distinct rows sampled with
///    `common::Rng(seed)`;
///  - assignment is embarrassingly parallel (each row's nearest centroid
///    is independent) and runs on the pool;
///  - the update step accumulates rows into per-centroid sums serially in
///    ascending row order with double precision, so the reduction order —
///    and therefore every centroid bit — is independent of the thread
///    count;
///  - centroids that attract no rows keep their previous position.
///
/// Non-finite rows: a training row holding a NaN or an infinity never
/// seeds a centroid and never enters the update sums, so every centroid
/// stays finite. If fewer finite training rows than cells remain, the cell
/// count drops to their number (one cell at the origin when there is none).
/// On an all-finite table nothing is left out.
KMeansModel TrainKMeans(const serve::EmbeddingSnapshot& table,
                        const KMeansOptions& options);

}  // namespace desalign::index

#endif  // DESALIGN_INDEX_KMEANS_H_
