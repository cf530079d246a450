#include "serve/topk.h"

#include <algorithm>

#include "common/check.h"
#include "serve/scoring.h"

namespace desalign::serve {

namespace {

using scoring::Better;
using scoring::Candidate;
using scoring::Dot;

std::vector<float> NormalizedQueries(int64_t dim, const float* queries,
                                     int64_t num_queries) {
  std::vector<float> q(queries, queries + num_queries * dim);
  L2NormalizeRows(q.data(), num_queries, dim);
  return q;
}

}  // namespace

TopKRetriever::TopKRetriever(const EmbeddingStore* store, TopKOptions options)
    : store_(store),
      options_(options),
      scorer_(options.rerank_candidates, options.pool, options.registry) {
  DESALIGN_CHECK(store_ != nullptr);
  if (options_.block_rows <= 0) options_.block_rows = 256;
}

std::vector<TopKResult> TopKRetriever::Retrieve(const float* queries,
                                                int64_t num_queries,
                                                int64_t k) const {
  return Search(queries, num_queries, k, options_.rerank_source);
}

std::vector<TopKResult> TopKRetriever::RetrieveDegraded(
    const float* queries, int64_t num_queries, int64_t k,
    DegradationLevel level) const {
  return Search(queries, num_queries, k,
                level >= DegradationLevel::kNoRefine ? nullptr
                                                     : options_.rerank_source);
}

std::vector<TopKResult> TopKRetriever::Search(const float* queries,
                                              int64_t num_queries, int64_t k,
                                              const RowSource* source) const {
  const EmbeddingSnapshot snap = store_->Snapshot();
  const int64_t n = snap.size();
  const int64_t block = options_.block_rows;
  return scorer_.Score(snap, queries, num_queries, k, source,
                       [&](scoring::ChunkScorer& chunk) {
                         for (int64_t b0 = 0; b0 < n; b0 += block) {
                           chunk.OfferRows(b0, std::min(n, b0 + block));
                         }
                       });
}

std::vector<TopKResult> TopKRetriever::Retrieve(const tensor::Tensor& queries,
                                                int64_t k) const {
  DESALIGN_CHECK_EQ(queries.cols(), store_->dim());
  return Retrieve(queries.data().data(), queries.rows(), k);
}

std::vector<TopKResult> TopKRetriever::RetrieveBruteForce(
    const float* queries, int64_t num_queries, int64_t k) const {
  std::vector<TopKResult> results(
      num_queries > 0 ? static_cast<size_t>(num_queries) : 0);
  if (num_queries <= 0) return results;
  const EmbeddingSnapshot snap = store_->Snapshot();
  k = std::min(k, snap.size());
  if (k <= 0) return results;

  const int64_t d = snap.dim();
  const int64_t n = snap.size();
  const std::vector<float> q = NormalizedQueries(d, queries, num_queries);
  std::vector<Candidate> scored(static_cast<size_t>(n));
  // RowAsFloat makes this the exact reference for every dtype: quantized
  // rows are dequantized with the same fixed-order math the re-rank uses,
  // so int8 exact mode (rerank_candidates < 0) must match this bit-for-bit.
  std::vector<float> scratch(static_cast<size_t>(d));
  for (int64_t i = 0; i < num_queries; ++i) {
    const float* qi = q.data() + i * d;
    for (int64_t r = 0; r < n; ++r) {
      scored[static_cast<size_t>(r)] = {
          Dot(qi, snap.RowAsFloat(r, scratch.data()), d), r};
    }
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                      Better);
    TopKResult& out = results[static_cast<size_t>(i)];
    out.ids.reserve(k);
    out.scores.reserve(k);
    for (int64_t j = 0; j < k; ++j) {
      out.ids.push_back(scored[static_cast<size_t>(j)].id);
      out.scores.push_back(scored[static_cast<size_t>(j)].score);
    }
  }
  return results;
}

}  // namespace desalign::serve
