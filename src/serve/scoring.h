#ifndef DESALIGN_SERVE_SCORING_H_
#define DESALIGN_SERVE_SCORING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "serve/retriever.h"

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

/// The single ordering contract shared by every retrieval path (blocked
/// brute force, partial-sort reference, IVF re-rank): higher score first,
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

  /// Finish() without the TopKResult packaging; the IVF probe step wants
  /// the ids only.
  std::vector<int64_t> FinishIds() {
    std::sort(heap_.begin(), heap_.end(), Better);
    std::vector<int64_t> ids;
    ids.reserve(heap_.size());
    for (const auto& c : heap_) ids.push_back(c.id);
    return ids;
  }

 private:
  void OfferSlow(float score, int64_t id) {
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

  int64_t k_;
  bool full_ = false;
  float worst_score_ = 0.0f;     // valid only while full_
  std::vector<Candidate> heap_;  // max-heap on Better => worst at front
};

}  // namespace desalign::serve::scoring

#endif  // DESALIGN_SERVE_SCORING_H_
