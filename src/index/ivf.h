#ifndef DESALIGN_INDEX_IVF_H_
#define DESALIGN_INDEX_IVF_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "index/kmeans.h"
#include "obs/metrics.h"
#include "serve/embedding_store.h"
#include "serve/retriever.h"
#include "serve/scoring.h"
#include "serve/stats.h"
#include "serve/topk.h"

namespace desalign::index {

struct IvfOptions {
  /// Coarse-quantizer cells; 0 = auto (~sqrt(n), clamped to [1, n]).
  int64_t num_centroids = 0;
  /// Cells probed per query by the Retriever-interface Retrieve; clamped
  /// to [1, num_centroids]. nprobe == num_centroids scans every list and
  /// is byte-identical to brute force. The kReducedProbe rung probes
  /// max(1, nprobe / 4).
  int64_t nprobe = 8;
  uint64_t seed = common::Rng::kDefaultSeed;
  /// Inverted lists are split into this many contiguous-entity-range
  /// shards, built in parallel; clamped to [1, n]. Shard contents are
  /// independent of the shard count, so results are too.
  int num_shards = 4;
  common::ThreadPool* pool = nullptr;  ///< null = ThreadPool::Global()
  /// Registry for `index.*` and `quant.*` metrics; null =
  /// MetricsRegistry::Global().
  obs::MetricsRegistry* registry = nullptr;
  /// int8 tables: same meaning as serve::TopKOptions::rerank_candidates
  /// (0 auto, >0 explicit, <0 all), applied to the probed candidates.
  int64_t rerank_candidates = 0;
};

/// Two-stage deterministic ANN retriever: a k-means coarse quantizer
/// buckets entities into per-shard inverted lists; a query probes its
/// `nprobe` nearest centroids, and the entities of the probed lists are
/// its candidates. Scoring and quantized tables follow the one contract of
/// serve::scoring::BatchScorer (serve/scoring.h), the same as
/// TopKRetriever's; IVF serves no full-precision refinement source.
///
/// Determinism: the candidate set for a query is a pure function of
/// (table bits, options) — seeded k-means, fixed iterations, id-ascending
/// tie-breaks — and cell assignment reads rows through
/// EmbeddingSnapshot::RowAsFloat (fixed-order scalar dequantization), so
/// it is dtype-deterministic too. Therefore results are bit-identical
/// across thread counts and shard counts, and at full probe
/// (nprobe = num_centroids) byte-identical to TopKRetriever over the same
/// table and options. Partial probe trades recall for latency; see
/// docs/SERVING.md for tuning.
///
/// Reload: ReloadAndRebuild chains the store's validate-before-swap
/// Reload with an index rebuild; queries in flight keep the previous
/// (snapshot, lists) pair, which stays internally consistent because a
/// build captures its own EmbeddingSnapshot. A failed reload leaves both
/// the store and the index serving the last-good table.
///
/// Metrics (`index.*`): builds, build_ms, queries, probes,
/// candidates_per_query; plus the scorer's `quant.*` series.
class IvfRetriever final : public serve::Retriever {
 public:
  /// Builds the index from the store's current snapshot; `store` must
  /// outlive the retriever.
  explicit IvfRetriever(serve::EmbeddingStore* store, IvfOptions options = {});

  /// Re-snapshots the store and rebuilds quantizer + inverted lists, then
  /// publishes the new index in one swap.
  void Rebuild();

  /// Validate-before-swap reload of the backing store followed by a
  /// rebuild. On failure the previous store table *and* index stay live.
  common::Status ReloadAndRebuild(const std::string& path,
                                  const serve::ReloadOptions& options = {},
                                  serve::ServeStats* stats = nullptr);

  /// Retriever interface: probes options.nprobe cells.
  std::vector<serve::TopKResult> Retrieve(const float* queries,
                                          int64_t num_queries,
                                          int64_t k) const override;

  /// Same with an explicit probe width (clamped to [1, num_centroids]).
  std::vector<serve::TopKResult> RetrieveWithProbe(const float* queries,
                                                   int64_t num_queries,
                                                   int64_t k,
                                                   int64_t nprobe) const;

  /// Overload ladder: any rung at or past kReducedProbe probes
  /// max(1, nprobe / 4) cells instead of `nprobe` — recall dips, the scan
  /// shrinks, and results return to bit-identical full quality as soon as
  /// the governor steps back to kNone (the index itself is untouched).
  std::vector<serve::TopKResult> RetrieveDegraded(
      const float* queries, int64_t num_queries, int64_t k,
      serve::DegradationLevel level) const override;

  int64_t dim() const override;
  int64_t size() const override;

  /// Cells in the current index (resolved from options and table size).
  int64_t num_centroids() const;
  int num_shards() const;
  double last_build_ms() const;

 private:
  /// One shard: inverted lists for the contiguous entity range
  /// [begin, end), stored CSR-style. entries under one list are ascending
  /// entity ids (the build scans rows in order), and a range's lists are
  /// independent of how many shards the table was cut into.
  struct Shard {
    int64_t begin = 0;
    int64_t end = 0;
    std::vector<int64_t> list_start;  ///< num_centroids + 1 offsets
    std::vector<int64_t> entries;     ///< entity ids grouped by centroid
  };

  /// An immutable built index: the exact table snapshot it indexes plus
  /// the quantizer and lists derived from it. Swapped whole, so a query
  /// never sees lists from one table and rows from another.
  struct Built {
    serve::EmbeddingSnapshot snap;
    KMeansModel coarse;
    std::vector<Shard> shards;
    double build_ms = 0.0;
  };

  std::shared_ptr<const Built> Current() const;

  serve::EmbeddingStore* store_;
  IvfOptions options_;
  serve::scoring::BatchScorer scorer_;

  obs::Counter* builds_;             // owned by the registry
  obs::Gauge* build_ms_;             // owned by the registry
  obs::Counter* queries_;            // owned by the registry
  obs::Counter* probes_;             // owned by the registry
  obs::Histogram* candidates_;       // owned by the registry

  mutable common::Mutex mutex_;
  std::shared_ptr<const Built> built_ GUARDED_BY(mutex_);
};

/// Which Retriever implementation serve should run.
enum class RetrieverKind { kBruteForce, kIvf };

/// Parses "brute" / "ivf" (the --index CLI flag).
common::Result<RetrieverKind> ParseRetrieverKind(const std::string& name);

struct RetrieverConfig {
  RetrieverKind kind = RetrieverKind::kBruteForce;
  serve::TopKOptions topk;  ///< used when kind == kBruteForce
  IvfOptions ivf;           ///< used when kind == kIvf
};

/// Config-driven factory so serving picks brute force vs IVF without
/// compile-time knowledge of either.
std::unique_ptr<serve::Retriever> MakeRetriever(serve::EmbeddingStore* store,
                                                const RetrieverConfig& config);

}  // namespace desalign::index

#endif  // DESALIGN_INDEX_IVF_H_
