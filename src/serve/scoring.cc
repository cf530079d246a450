#include "serve/scoring.h"

#include <algorithm>

#include "nn/quant.h"

namespace desalign::serve::scoring {

void BoundedTopK::OfferSlow(float score, int64_t id) {
  const Candidate c{score, id};
  if (static_cast<int64_t>(heap_.size()) < k_) {
    heap_.push_back(c);
    std::push_heap(heap_.begin(), heap_.end(), Better);
    full_ = static_cast<int64_t>(heap_.size()) == k_;
  } else {
    if (!Better(c, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), Better);
    heap_.back() = c;
    std::push_heap(heap_.begin(), heap_.end(), Better);
  }
  worst_score_ = heap_.front().score;
}

int64_t ResolveRerankCandidates(int64_t requested, int64_t k, int64_t n) {
  if (requested < 0) return n;  // exact mode: re-rank everything
  int64_t c = requested == 0 ? std::max<int64_t>(4 * k, 64) : requested;
  c = std::max(c, k);
  return std::min(c, n);
}

ChunkScorer::ChunkScorer(const EmbeddingSnapshot& snap, const float* queries,
                         int64_t begin, int64_t end, int64_t k,
                         int64_t rerank, const RowSource* refine,
                         TopKResult* results)
    : snap_(snap),
      queries_(queries),
      dim_(snap.dim()),
      begin_(begin),
      end_(end),
      k_(k),
      rerank_(rerank),
      refine_(refine),
      results_(results),
      scratch_(static_cast<size_t>(snap.dim())) {
  if (TwoStage(snap.size())) {
    // Each query is quantized once for the whole candidate scan.
    int8_queries_.reserve(static_cast<size_t>(end - begin));
    for (int64_t i = begin; i < end; ++i) {
      int8_queries_.push_back(QuantizeQuery(query(i), dim_));
    }
  }
}

void ChunkScorer::OfferRows(int64_t row_begin, int64_t row_end) {
  const int64_t d = dim_;
  const bool two_stage = TwoStage(snap_.size());
  if (heaps_.empty()) {
    heaps_.reserve(static_cast<size_t>(end_ - begin_));
    for (int64_t i = begin_; i < end_; ++i) {
      heaps_.emplace_back(two_stage ? rerank_ : k_);
    }
  }
  if (two_stage) {
    for (int64_t i = begin_; i < end_; ++i) {
      const Int8Query& qi = int8_queries_[static_cast<size_t>(i - begin_)];
      BoundedTopK& heap = heaps_[static_cast<size_t>(i - begin_)];
      for (int64_t r = row_begin; r < row_end; ++r) {
        heap.Offer(Int8Score(qi, snap_.codes_row(r), snap_.scale(r), d), r);
      }
    }
    return;
  }
  // Each query row lives in L1 for its pass over the range.
  const float* rows = snap_.dtype() == nn::TensorDtype::kFloat32
                          ? snap_.row(row_begin)
                          : DecodeRows(row_begin, row_end);
  for (int64_t i = begin_; i < end_; ++i) {
    const float* qi = query(i);
    BoundedTopK& heap = heaps_[static_cast<size_t>(i - begin_)];
    for (int64_t r = row_begin; r < row_end; ++r) {
      heap.Offer(Dot(qi, rows + (r - row_begin) * d, d), r);
    }
  }
}

const float* ChunkScorer::DecodeRows(int64_t row_begin, int64_t row_end) {
  const int64_t d = dim_;
  const auto values = static_cast<size_t>((row_end - row_begin) * d);
  if (scratch_.size() < values) scratch_.resize(values);
  if (snap_.dtype() == nn::TensorDtype::kBf16) {
    nn::quant::Bf16DecodeRow(snap_.bf16_row(row_begin),
                             (row_end - row_begin) * d, scratch_.data());
    return scratch_.data();
  }
  // Int8 rows scored in one exact pass (C covers the table): each row is
  // fetched once for the chunk, and a failed fetch counts once per query
  // it serves, as a fetch per query would. ExactRow fills the buffer it
  // is given for every int8 row.
  const int64_t errors = fetch_errors_;
  for (int64_t r = row_begin; r < row_end; ++r) {
    ExactRow(r, scratch_.data() + (r - row_begin) * d);
  }
  fetch_errors_ += (fetch_errors_ - errors) * (end_ - begin_ - 1);
  return scratch_.data();
}

const float* ChunkScorer::ExactRow(int64_t id, float* buf) {
  if (refine_ != nullptr) {
    if (refine_->Row(id, buf)) return buf;
    ++fetch_errors_;
  }
  return snap_.RowAsFloat(id, buf);
}

int64_t ChunkScorer::ScoreIds(int64_t i, const std::vector<IdRange>& lists) {
  const int64_t d = dim_;
  int64_t candidates = 0;
  for (const IdRange& list : lists) candidates += list.count;
  if (TwoStage(candidates)) {
    const Int8Query& qi = int8_queries_[static_cast<size_t>(i - begin_)];
    BoundedTopK stage1(rerank_);
    for (const IdRange& list : lists) {
      for (int64_t e = 0; e < list.count; ++e) {
        const int64_t id = list.ids[e];
        stage1.Offer(Int8Score(qi, snap_.codes_row(id), snap_.scale(id), d),
                     id);
      }
    }
    results_[i] = Rerank(i, stage1);
    return candidates;
  }
  // One exact pass: fp32 or bf16 rows, or int8 rows whose C covers every
  // candidate.
  const float* qi = query(i);
  BoundedTopK heap(std::min(k_, candidates));
  for (const IdRange& list : lists) {
    for (int64_t e = 0; e < list.count; ++e) {
      const int64_t id = list.ids[e];
      heap.Offer(Dot(qi, ExactRow(id, scratch_.data()), d), id);
    }
  }
  results_[i] = heap.Finish();
  return candidates;
}

TopKResult ChunkScorer::Rerank(int64_t i, const BoundedTopK& stage1) {
  // Stage 2: exact fp32 re-rank of the stage-1 survivors with the shared
  // Dot/Better contract. Better is a strict total order, so the survivors'
  // offer order does not change the answer.
  const float* qi = query(i);
  BoundedTopK final_heap(k_);
  for (const Candidate& c : stage1.entries()) {
    final_heap.Offer(Dot(qi, ExactRow(c.id, scratch_.data()), dim_), c.id);
  }
  return final_heap.Finish();
}

void ChunkScorer::Finish() {
  if (heaps_.empty()) return;
  const bool two_stage = TwoStage(snap_.size());
  for (int64_t i = begin_; i < end_; ++i) {
    BoundedTopK& heap = heaps_[static_cast<size_t>(i - begin_)];
    results_[i] = two_stage ? Rerank(i, heap) : heap.Finish();
  }
}

BatchScorer::BatchScorer(int64_t rerank_candidates, common::ThreadPool* pool,
                         obs::MetricsRegistry* registry)
    : rerank_candidates_(rerank_candidates), pool_(pool) {
  obs::MetricsRegistry& metrics =
      registry != nullptr ? *registry : obs::MetricsRegistry::Global();
  int8_queries_ = &metrics.GetCounter("quant.int8_queries");
  bf16_queries_ = &metrics.GetCounter("quant.bf16_queries");
  source_errors_ = &metrics.GetCounter("quant.rerank_source_errors");
  rerank_width_ = &metrics.GetHistogram(
      "quant.rerank_candidates",
      obs::Histogram::ExponentialBuckets(1.0, 2.0, 30));
}

std::vector<TopKResult> BatchScorer::Score(const EmbeddingSnapshot& snap,
                                           const float* queries,
                                           int64_t num_queries, int64_t k,
                                           const RowSource* source,
                                           const Walk& walk) const {
  std::vector<TopKResult> results(
      num_queries > 0 ? static_cast<size_t>(num_queries) : 0);
  if (num_queries <= 0) return results;
  k = std::min(k, snap.size());
  if (k <= 0) return results;

  const int64_t d = snap.dim();
  const int64_t n = snap.size();
  std::vector<float> q(queries, queries + num_queries * d);
  L2NormalizeRows(q.data(), num_queries, d);

  const bool int8 = snap.dtype() == nn::TensorDtype::kInt8;
  const int64_t rerank = ResolveRerankCandidates(rerank_candidates_, k, n);
  // Refinement applies only to the int8 stage 2, and only while the source
  // matches the snapshot's shape (a reload may have swapped tables since
  // the source was opened).
  const RowSource* refine =
      int8 && source != nullptr && source->rows() == n && source->dim() == d
          ? source
          : nullptr;

  common::ThreadPool& pool =
      pool_ != nullptr ? *pool_ : common::ThreadPool::Global();
  pool.ParallelFor(
      0, num_queries,
      [&](int64_t qb, int64_t qe) {
        ChunkScorer chunk(snap, q.data(), qb, qe, k, rerank, refine,
                          results.data());
        walk(chunk);
        chunk.Finish();
        if (chunk.fetch_errors_ > 0) {
          source_errors_->Increment(chunk.fetch_errors_);
        }
      },
      /*grain=*/1);
  if (int8) {
    if (source != nullptr && refine == nullptr) source_errors_->Increment(1);
    int8_queries_->Increment(num_queries);
    rerank_width_->Record(static_cast<double>(rerank));
  } else if (snap.dtype() == nn::TensorDtype::kBf16) {
    bf16_queries_->Increment(num_queries);
  }
  return results;
}

}  // namespace desalign::serve::scoring
