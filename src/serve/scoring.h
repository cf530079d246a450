#ifndef DESALIGN_SERVE_SCORING_H_
#define DESALIGN_SERVE_SCORING_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serve/embedding_store.h"
#include "serve/retriever.h"
#include "serve/row_source.h"

namespace desalign::serve::scoring {

/// One scored entity. The pair (score, id) carries the full ranking state:
/// ids are unique, so Better() below is a strict total order and any top-k
/// selection over a fixed candidate set has exactly one answer — the
/// property that makes IVF-at-full-probe bit-identical to brute force
/// regardless of scan order, shard count or thread count.
struct Candidate {
  float score;
  int64_t id;
};

/// The single ordering contract shared by every retrieval path (the
/// BatchScorer below, the partial-sort reference): higher score first,
/// exact float ties broken by the smaller entity id.
inline bool Better(const Candidate& a, const Candidate& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// Shared dot-product kernel. Four independent accumulators let the
/// compiler keep the FMA pipeline busy; since *every* path uses this
/// function, accumulation order is identical and scores are bit-equal.
inline float Dot(const float* a, const float* b, int64_t d) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int64_t c = 0;
  for (; c + 4 <= d; c += 4) {
    s0 += a[c] * b[c];
    s1 += a[c + 1] * b[c + 1];
    s2 += a[c + 2] * b[c + 2];
    s3 += a[c + 3] * b[c + 3];
  }
  for (; c < d; ++c) s0 += a[c] * b[c];
  return ((s0 + s1) + (s2 + s3));
}

/// Integer dot product of two int8 code rows, accumulated in int32.
/// Dispatches scalar vs AVX2 via tensor::kernels::ActiveIsa(); because
/// int32 addition is associative, the vectorised reduction is bit-identical
/// to the scalar loop — the one place where ISA reordering is provably
/// harmless, unlike float accumulation. Overflow-safe for d up to ~2^17
/// (|code| <= 127, so |sum| <= d * 127^2). Defined in quant_scan.cc.
int32_t DotI8(const int8_t* a, const int8_t* b, int64_t d);

/// A query quantized once per request with the same per-row symmetric
/// scheme the table rows use (nn::quant::QuantizeRow), amortising the
/// fp32 -> int8 conversion across the whole candidate scan.
struct Int8Query {
  std::vector<int8_t> codes;
  float scale = 0.0f;
};

/// Quantizes `q` (dim d) for the int8 candidate scan. Queries are caller
/// input, so unlike table rows (where QuantizeRow rejects) non-finite
/// coordinates are sanitized to 0 here: a poisoned query must degrade to
/// a well-defined answer, not poison the server. Defined in quant_scan.cc.
Int8Query QuantizeQuery(const float* q, int64_t d);

/// Approximate candidate score: (scale_q * scale_row) * <codes_q, codes_row>.
/// The int32 dot is exact on every ISA and the two float multiplies happen
/// in one fixed order, so approximate scores — and therefore the candidate
/// sets they select — are bit-identical across scalar/AVX2, thread counts
/// and scan orders. Final ranking always re-scores candidates with the
/// fp32 Dot above.
inline float Int8Score(const Int8Query& q, const int8_t* row_codes,
                       float row_scale, int64_t d) {
  return (q.scale * row_scale) *
         static_cast<float>(DotI8(q.codes.data(), row_codes, d));
}

/// Bounded "worst on top" candidate set of size <= k. Because Better is a
/// strict total order over unique ids, the surviving set (and its sorted
/// Finish order) is independent of Offer order.
class BoundedTopK {
 public:
  explicit BoundedTopK(int64_t k) : k_(k) { heap_.reserve(k); }

  /// Hot path: once the set is full, almost every candidate scores below
  /// the cached k-th best and is rejected on a single register compare.
  /// The rest goes to OfferSlow, kept out of line (scoring.cc) so this
  /// compare inlines into every candidate loop.
  void Offer(float score, int64_t id) {
    if (full_ && score < worst_score_) return;
    OfferSlow(score, id);
  }

  TopKResult Finish() {
    std::sort(heap_.begin(), heap_.end(), Better);
    TopKResult out;
    out.ids.reserve(heap_.size());
    out.scores.reserve(heap_.size());
    for (const auto& c : heap_) {
      out.ids.push_back(c.id);
      out.scores.push_back(c.score);
    }
    return out;
  }

  /// The surviving set in heap order, unsorted: for callers that need
  /// the set and not its ranking (stage 2 re-scores it, the IVF probe
  /// scans its cells).
  const std::vector<Candidate>& entries() const { return heap_; }

 private:
  void OfferSlow(float score, int64_t id);

  int64_t k_;
  bool full_ = false;
  float worst_score_ = 0.0f;     // valid only while full_
  std::vector<Candidate> heap_;  // max-heap on Better => worst at front
};

/// Resolves TopKOptions::rerank_candidates to a concrete re-rank width C
/// for one (k, n) call: <0 -> n, 0 -> min(n, max(4k, 64)), >0 -> clamped
/// to [k, n].
int64_t ResolveRerankCandidates(int64_t requested, int64_t k, int64_t n);

/// A run of candidate row ids, e.g. one inverted list.
struct IdRange {
  const int64_t* ids;
  int64_t count;
};

/// One worker's share of a BatchScorer::Score call: the normalized queries
/// [begin(), end()) of the batch. A retriever's walk hands it candidates
/// in one of two ways; a walk uses one of them for every query.
class ChunkScorer {
 public:
  int64_t begin() const { return begin_; }
  int64_t end() const { return end_; }
  /// Normalized query `i`, for begin() <= i < end().
  const float* query(int64_t i) const { return queries_ + i * dim_; }

  /// Offers rows [row_begin, row_end) to every query of the chunk. The
  /// range is scored by all of them while it is cache-resident, and rows
  /// that need decoding are decoded once for all of them. Score finishes
  /// these queries after the walk.
  void OfferRows(int64_t row_begin, int64_t row_end);

  /// Scores query `i` against every id of `lists` and finishes it, so a
  /// walk that goes query by query holds one query's heaps at a time.
  /// Returns the number of candidates.
  int64_t ScoreIds(int64_t i, const std::vector<IdRange>& lists);

 private:
  friend class BatchScorer;
  ChunkScorer(const EmbeddingSnapshot& snap, const float* queries,
              int64_t begin, int64_t end, int64_t k, int64_t rerank,
              const RowSource* refine, TopKResult* results);

  /// Int8 stage 1 runs only when C leaves some of the `candidates` out;
  /// otherwise stage 2 alone, over every candidate, gives the same answer.
  bool TwoStage(int64_t candidates) const {
    return snap_.dtype() == nn::TensorDtype::kInt8 && rerank_ < candidates;
  }
  /// Rows [row_begin, row_end) in fp32, decoded into scratch_.
  const float* DecodeRows(int64_t row_begin, int64_t row_end);
  /// Row `id` in fp32: int8 rows from the refinement source when there is
  /// one and the fetch succeeds (failures counted), else from the table.
  const float* ExactRow(int64_t id, float* buf);
  /// Stage 2 of query `i`: its stage-1 survivors re-scored with Dot.
  TopKResult Rerank(int64_t i, const BoundedTopK& stage1);
  /// Writes the results of the queries OfferRows fed.
  void Finish();

  const EmbeddingSnapshot& snap_;
  const float* queries_;
  int64_t dim_;
  int64_t begin_;
  int64_t end_;
  int64_t k_;
  int64_t rerank_;
  const RowSource* refine_;  // int8 tables only; null = dequantized rows
  TopKResult* results_;      // indexed by query
  int64_t fetch_errors_ = 0;
  std::vector<Int8Query> int8_queries_;  // int8 tables with C < n only
  std::vector<BoundedTopK> heaps_;       // OfferRows only, one per query
  std::vector<float> scratch_;           // a decoded range, or a row
};

/// The scoring contract of every Retriever. TopKRetriever and
/// index::IvfRetriever differ only in the walk that enumerates candidates
/// (every row block by block, or the probed inverted lists); everything
/// else about a Retrieve call happens here, once:
///
///  - queries are L2-normalized copies and k is clamped to the table size;
///    no queries or k <= 0 yield empty per-query results;
///  - fp32 rows, and bf16 rows decoded exactly (a bit shift), are scored
///    with the shared Dot in one pass;
///  - int8 rows go through two stages. Stage 1 scores candidates with
///    Int8Score (an integer dot, bit-identical on scalar and AVX2) and
///    keeps the best C = ResolveRerankCandidates(rerank_candidates, k, n)
///    per query. Stage 2 re-scores those C with Dot over fp32 rows: from
///    `source` when one is passed and matches the snapshot's shape, else
///    from the dequantized codes. A mismatched source is ignored for the
///    call and counted once on `quant.rerank_source_errors`; a failed
///    fetch is counted once per query it serves, and that row falls back
///    to its dequantized form. A null source is the kNoRefine rung.
///    When C covers a query's candidates (exact mode, C = n, always
///    does), stage 1 would keep them all, so it is skipped: no heap ever
///    holds more than the candidates offered to it.
///
/// A walk offers each row at most once per query. Both stages rank with
/// Better, a strict total order over unique ids, so the answer depends
/// only on the candidate set: not on offer order, chunking, thread count
/// or ISA. A walk that offers every row therefore returns
/// TopKRetriever::RetrieveBruteForce's answer (for int8 tables in exact
/// mode), and with a full-precision source, fp32 brute force's.
/// See docs/SERVING.md "Quantized serving".
///
/// Metrics: `quant.int8_queries`, `quant.bf16_queries`,
/// `quant.rerank_candidates` (C per int8 call) and
/// `quant.rerank_source_errors`.
class BatchScorer {
 public:
  /// Runs once per worker chunk, offering its queries' candidates.
  using Walk = std::function<void(ChunkScorer&)>;

  /// `rerank_candidates` follows TopKOptions::rerank_candidates; a null
  /// `pool` means ThreadPool::Global() and a null `registry`
  /// MetricsRegistry::Global().
  BatchScorer(int64_t rerank_candidates, common::ThreadPool* pool,
              obs::MetricsRegistry* registry);

  /// Scores `num_queries` x snap.dim() `queries` against `snap`, split
  /// across the pool by query.
  std::vector<TopKResult> Score(const EmbeddingSnapshot& snap,
                                const float* queries, int64_t num_queries,
                                int64_t k, const RowSource* source,
                                const Walk& walk) const;

 private:
  int64_t rerank_candidates_;
  common::ThreadPool* pool_;
  obs::Counter* int8_queries_;    // owned by the registry
  obs::Counter* bf16_queries_;    // owned by the registry
  obs::Counter* source_errors_;   // owned by the registry
  obs::Histogram* rerank_width_;  // owned by the registry
};

}  // namespace desalign::serve::scoring

#endif  // DESALIGN_SERVE_SCORING_H_
