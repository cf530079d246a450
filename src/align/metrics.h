#ifndef DESALIGN_ALIGN_METRICS_H_
#define DESALIGN_ALIGN_METRICS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace desalign::align {

using tensor::Tensor;
using tensor::TensorPtr;

/// Ranking quality of an alignment prediction (paper Eq. 23–24). The
/// similarity matrix convention: row i is test pair i's source entity,
/// column j is test pair j's target entity, so the correct answer for row i
/// is column i.
struct RankingMetrics {
  double h_at_1 = 0.0;
  double h_at_5 = 0.0;
  double h_at_10 = 0.0;
  double mrr = 0.0;
  int64_t num_queries = 0;
};

/// Computes H@{1,5,10} and MRR from a square similarity matrix whose
/// diagonal holds the ground-truth matches (source -> target direction).
RankingMetrics MetricsFromSimilarity(const Tensor& sim);

/// Cosine similarity matrix between row-sets a (n x d) and b (m x d);
/// returns n x m. Pure inference helper — never builds autograd state.
TensorPtr CosineSimilarityMatrix(const TensorPtr& a, const TensorPtr& b);

/// Mean over S states (paper Algorithm 1, line 15): the average over s of
/// the cosine similarity between rows `source_rows` of source_states[s] and
/// rows `target_rows` of target_states[s]; returns
/// |source_rows| x |target_rows|. Bit-identical to adding the S
/// CosineSimilarityMatrix results with Add in state order and scaling the
/// sum by 1/S, but accumulated in place: one output matrix, no
/// per-state temporaries. Pure inference helper, like the above.
TensorPtr MeanCosineSimilarity(const std::vector<TensorPtr>& source_states,
                               const std::vector<int64_t>& source_rows,
                               const std::vector<TensorPtr>& target_states,
                               const std::vector<int64_t>& target_rows);

/// Cross-domain similarity local scaling [Lample et al.]: replaces
/// sim(i,j) by 2*sim(i,j) − r_src(i) − r_tgt(j) where r are mean top-k
/// neighborhood similarities. Mitigates hubness in nearest-neighbor
/// retrieval; offered as an optional decoding refinement.
void ApplyCsls(Tensor& sim, int k = 10);

}  // namespace desalign::align

#endif  // DESALIGN_ALIGN_METRICS_H_
