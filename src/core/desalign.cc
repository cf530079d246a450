#include "core/desalign.h"

#include <vector>

#include "align/metrics.h"
#include "common/check.h"
#include "obs/trace.h"

namespace desalign::core {

using tensor::Tensor;
using tensor::TensorPtr;

DesalignConfig DesalignConfig::Default(uint64_t seed) {
  DesalignConfig cfg;
  cfg.base.name = "DESAlign";
  cfg.base.seed = seed;
  cfg.base.use_cross_modal_attention = true;
  cfg.base.use_intra_modal_losses = true;
  cfg.base.use_min_confidence = true;
  cfg.base.use_initial_task_loss = true;
  cfg.base.use_mid_layer_losses = true;
  // DESAlign interpolates missing semantics by propagation instead of
  // sampling noise from a predefined distribution.
  cfg.base.missing_policy = align::MissingFeaturePolicy::kZeroFill;
  return cfg;
}

DesalignModel::DesalignModel(DesalignConfig config)
    : align::FusionAlignModel(config.base), dcfg_(std::move(config)) {}

TensorPtr DesalignModel::ExtraLoss(const ForwardState& state) {
  if (!dcfg_.use_mmsl) return nullptr;
  obs::TraceSpan span("mmsl");
  return MmslPenalty(norm_adj_union_, state.h_ori, state.h_mid, state.h_fus,
                     dcfg_.mmsl);
}

namespace {

// Plain (non-autograd) row-range copy.
TensorPtr SliceRowsCopy(const TensorPtr& x, int64_t start, int64_t count) {
  auto out = Tensor::Create(count, x->cols());
  std::copy(x->data().begin() + start * x->cols(),
            x->data().begin() + (start + count) * x->cols(),
            out->data().begin());
  return out;
}

}  // namespace

TensorPtr DesalignModel::SimilarityFromEmbeddings(
    const ForwardState& state, const kg::AlignedKgPair& data) {
  if (!dcfg_.use_propagation || dcfg_.propagation_iterations <= 0) {
    return FusionAlignModel::SimilarityFromEmbeddings(state, data);
  }
  tensor::NoGradGuard no_grad;
  obs::TraceSpan span("propagation");
  const int64_t ns = features_.num_source;
  const int64_t nt = features_.num_target;
  auto x = state.h_ori->Detach();
  auto xs = SliceRowsCopy(x, 0, ns);
  auto xt = SliceRowsCopy(x, ns, nt);

  // Algorithm 1 keeps the consistent features in the propagation ("to
  // simplify the application"), i.e. no boundary reset: every iteration is
  // one low-pass filter pass X ← ÃX per KG. The Eq. 22 reset variant is
  // available through SemanticPropagation::Step for theoretical use.
  std::vector<bool> no_reset_s(ns, false);
  std::vector<bool> no_reset_t(nt, false);
  auto states_s = SemanticPropagation::Run(
      norm_adj_src_, xs, no_reset_s, dcfg_.propagation_iterations,
      dcfg_.propagation_step);
  auto states_t = SemanticPropagation::Run(
      norm_adj_tgt_, xt, no_reset_t, dcfg_.propagation_iterations,
      dcfg_.propagation_step);

  // Test-pair rows in per-KG index spaces.
  std::vector<int64_t> src_rows;
  std::vector<int64_t> tgt_rows;
  src_rows.reserve(data.test_pairs.size());
  tgt_rows.reserve(data.test_pairs.size());
  for (const auto& p : data.test_pairs) {
    src_rows.push_back(p.source);
    tgt_rows.push_back(p.target);
  }

  // Ω = mean of the pairwise similarities over all propagation states
  // (Algorithm 1 line 15).
  return align::MeanCosineSimilarity(states_s, src_rows, states_t, tgt_rows);
}

}  // namespace desalign::core
