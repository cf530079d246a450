#ifndef DESALIGN_SERVE_TOPK_H_
#define DESALIGN_SERVE_TOPK_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serve/embedding_store.h"
#include "serve/retriever.h"
#include "serve/row_source.h"
#include "serve/scoring.h"
#include "tensor/tensor.h"

namespace desalign::serve {

struct TopKOptions {
  /// Target rows scanned per block; a block's rows stay hot in cache while
  /// every query in the worker's chunk consumes them.
  int64_t block_rows = 256;
  /// Pool used to parallelize across queries; null means
  /// `common::ThreadPool::Global()` (sized by the --threads flag /
  /// DESALIGN_NUM_THREADS).
  common::ThreadPool* pool = nullptr;
  /// int8 tables only: how many stage-1 (approximate int8) candidates C
  /// survive into the exact fp32 re-rank that produces the final top-k.
  ///   0  (default) auto: C = min(n, max(4k, 64));
  ///   >0 explicit C, clamped to [k, n];
  ///   <0 exact mode: C = n — every row is scored in fp32 (the int8 pass
  ///      would keep them all and is skipped), making the result identical
  ///      to RetrieveBruteForce over the same table (the CI bit-exactness
  ///      gate). fp32/bf16 tables score exactly in one pass and ignore
  ///      this field.
  int64_t rerank_candidates = 0;
  /// int8 tables only: optional full-precision refinement. When set, the
  /// stage-2 re-rank scores candidates with fp32 rows fetched from this
  /// source (e.g. a serve::CheckpointRowSource over the checkpoint the
  /// table was quantized from) instead of dequantized int8 rows, so exact
  /// mode (rerank_candidates < 0) reproduces fp32 brute force bit for bit
  /// while only the int8 table stays memory-resident. The source must
  /// outlive the retriever and match the table's shape; a mismatched
  /// source or a failed row fetch falls back to the dequantized row
  /// (counted on `quant.rerank_source_errors`). fp32/bf16 tables ignore
  /// this field.
  const RowSource* rerank_source = nullptr;
  /// Registry for the `quant.*` counters recorded when scanning quantized
  /// tables; null = MetricsRegistry::Global().
  obs::MetricsRegistry* registry = nullptr;
};

/// Batched exact cosine top-k over an EmbeddingStore — the brute-force
/// Retriever. Two paths return bit-identical results:
///
///  - Retrieve: a block-major walk over every row, parallelized across the
///    query batch; each block stays cache-resident while every query of a
///    worker's chunk scores it. Scoring, quantized tables and refinement
///    follow the one contract of scoring::BatchScorer (serve/scoring.h);
///  - RetrieveBruteForce: single-threaded full score vector + sort, the
///    exact reference used by the tests and the bench baseline.
///
/// Each call scans one EmbeddingSnapshot, so retrieval racing a concurrent
/// EmbeddingStore::Reload sees either the fully-old or the fully-new
/// table, never a mix.
///
/// Edge-case contract (regression-tested in tests/serve/topk_test.cc):
/// k <= 0 yields empty per-query results; k > size() is clamped to
/// size(); duplicate scores rank the smaller entity id first.
class TopKRetriever : public Retriever {
 public:
  /// `store` must outlive the retriever.
  explicit TopKRetriever(const EmbeddingStore* store,
                         TopKOptions options = {});

  /// `queries` is num_queries x dim() row-major.
  std::vector<TopKResult> Retrieve(const float* queries, int64_t num_queries,
                                   int64_t k) const override;
  std::vector<TopKResult> Retrieve(const tensor::Tensor& queries,
                                   int64_t k) const;

  /// Overload ladder: at kNoRefine the int8 stage-2 re-rank skips the
  /// fp32 `rerank_source` refinement and scores survivors from dequantized
  /// codes only — no checkpoint row fetches on an overloaded box. Other
  /// rungs (and fp32/bf16 tables, which have no refinement to shed) serve
  /// full quality; once the governor steps back to kNone, results are
  /// bit-identical to an unloaded queue because stage 1 candidates never
  /// depended on the refinement source.
  std::vector<TopKResult> RetrieveDegraded(
      const float* queries, int64_t num_queries, int64_t k,
      DegradationLevel level) const override;

  std::vector<TopKResult> RetrieveBruteForce(const float* queries,
                                             int64_t num_queries,
                                             int64_t k) const;

  int64_t dim() const override { return store_->dim(); }
  int64_t size() const override { return store_->size(); }

  const EmbeddingStore& store() const { return *store_; }

 private:
  /// The one query path; `source` is the rung's refinement source (null
  /// at kNoRefine).
  std::vector<TopKResult> Search(const float* queries, int64_t num_queries,
                                 int64_t k, const RowSource* source) const;

  const EmbeddingStore* store_;
  TopKOptions options_;
  scoring::BatchScorer scorer_;
};

}  // namespace desalign::serve

#endif  // DESALIGN_SERVE_TOPK_H_
