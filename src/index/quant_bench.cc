#include "index/quant_bench.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "eval/retrieval_metrics.h"
#include "index/ivf.h"
#include "nn/quant.h"
#include "obs/metrics.h"
#include "serve/bench_util.h"
#include "serve/embedding_store.h"
#include "serve/row_source.h"
#include "serve/scoring.h"
#include "serve/topk.h"

namespace desalign::index {

namespace {

namespace bench = serve::bench;
using bench::BitExact;
using bench::IdsOf;
using bench::JsonNum;
using bench::MixtureRows;
using bench::UnitCenters;
using serve::TopKResult;

}  // namespace

std::string QuantBenchReport::ToJson() const {
  std::ostringstream os;
  os << "{\"schema\":\"desalign.quant_bench.v1\",\"cases\":[";
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    if (i) os << ",";
    os << "{\"entities\":" << c.entities << ",\"dim\":" << c.dim
       << ",\"k\":" << c.k << ",\"dtypes\":[";
    for (size_t j = 0; j < c.dtypes.size(); ++j) {
      const auto& d = c.dtypes[j];
      if (j) os << ",";
      os << "{\"dtype\":\"" << d.dtype
         << "\",\"table_bytes\":" << d.table_bytes
         << ",\"memory_reduction\":" << JsonNum(d.memory_reduction)
         << ",\"mean_ms\":" << JsonNum(d.mean_ms)
         << ",\"p50_ms\":" << JsonNum(d.p50_ms)
         << ",\"p99_ms\":" << JsonNum(d.p99_ms)
         << ",\"qps\":" << JsonNum(d.qps)
         << ",\"recall_at_k\":" << JsonNum(d.recall_at_k)
         << ",\"recall_at_k_raw\":" << JsonNum(d.recall_at_k_raw)
         << ",\"hits_at_1\":" << JsonNum(d.hits_at_1)
         << ",\"hits_at_1_delta\":" << JsonNum(d.hits_at_1_delta)
         << ",\"bitexact_full\":" << (d.bitexact_full ? "true" : "false");
      if (d.dtype == "int8") {
        os << ",\"refined_exact_matches_fp32\":"
           << (d.refined_exact_matches_fp32 ? "true" : "false");
      }
      os << ",\"rerank_candidates\":" << d.rerank_candidates << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

QuantBenchReport RunQuantBench(const QuantBenchOptions& options) {
  QuantBenchReport report;
  std::vector<int64_t> entity_counts = options.entity_counts;
  if (options.smoke && !entity_counts.empty()) {
    entity_counts = {
        *std::min_element(entity_counts.begin(), entity_counts.end())};
  }
  const int64_t num_queries = std::max<int64_t>(
      options.smoke ? std::min<int64_t>(options.queries, 128)
                    : options.queries,
      1);
  const int64_t dim = std::max<int64_t>(options.dim, 4);
  const nn::TensorDtype dtypes[] = {nn::TensorDtype::kFloat32,
                                    nn::TensorDtype::kBf16,
                                    nn::TensorDtype::kInt8};

  for (const int64_t n : entity_counts) {
    common::Rng rng(options.seed + static_cast<uint64_t>(n));
    const int64_t clusters =
        std::min(std::max<int64_t>(options.clusters, 1), n);
    const auto centers = UnitCenters(rng, clusters, dim);
    auto store = serve::EmbeddingStore::FromRows(
        n, dim, MixtureRows(rng, centers, clusters, n, dim, options.noise));
    const auto queries =
        MixtureRows(rng, centers, clusters, num_queries, dim, options.noise);

    QuantBenchCase bench_case;
    bench_case.entities = n;
    bench_case.dim = dim;
    bench_case.k = std::min(options.k, n);
    const int64_t k = bench_case.k;

    // fp32 ground truth once, from the single-threaded exact reference —
    // the baseline every dtype's recall and Hits@1 are measured against.
    serve::TopKRetriever fp32_brute(&store);
    const auto truth =
        fp32_brute.RetrieveBruteForce(queries.data(), num_queries, k);
    const auto truth_ids = IdsOf(truth);
    const int64_t fp32_bytes =
        static_cast<int64_t>(store.Snapshot().MemoryBytes());

    // Full-precision refinement source: the fp32 table as a checkpoint on
    // disk, read row-by-row during stage 2 — the deployment shape where
    // only the int8 table is memory-resident. The in-memory snapshot
    // source is value-identical (checked below) and stands in for the
    // file in the exact-mode sweep, which touches every row per query.
    const std::string source_path =
        "/tmp/desalign_quant_bench_" + std::to_string(::getpid()) + "_" +
        std::to_string(n) + ".dckpt";
    DESALIGN_CHECK(store.Save(source_path).ok());
    auto opened = serve::CheckpointRowSource::Open(source_path);
    DESALIGN_CHECK(opened.ok());
    const serve::CheckpointRowSource ckpt_source = std::move(opened).value();
    const serve::SnapshotRowSource fp32_rows(store.Snapshot());
    {
      std::vector<float> from_file(static_cast<size_t>(dim));
      std::vector<float> from_snap(static_cast<size_t>(dim));
      for (const int64_t r : {int64_t{0}, n / 2, n - 1}) {
        DESALIGN_CHECK(ckpt_source.Row(r, from_file.data()));
        DESALIGN_CHECK(fp32_rows.Row(r, from_snap.data()));
        DESALIGN_CHECK(from_file == from_snap);
      }
    }

    for (const nn::TensorDtype dtype : dtypes) {
      auto quantized = store.Quantize(dtype);
      DESALIGN_CHECK(quantized.ok());
      serve::EmbeddingStore qstore = std::move(quantized.value());

      QuantBenchDtype out;
      out.dtype = nn::DtypeName(dtype);
      out.table_bytes = static_cast<int64_t>(qstore.Snapshot().MemoryBytes());
      out.memory_reduction = out.table_bytes > 0
                                 ? static_cast<double>(fp32_bytes) /
                                       static_cast<double>(out.table_bytes)
                                 : 0.0;

      // Measured path: the production configuration — for int8, the
      // integer candidate scan plus a stage-2 re-rank refined from the
      // on-disk fp32 checkpoint; a single exact pass otherwise.
      const bool is_int8 = dtype == nn::TensorDtype::kInt8;
      serve::TopKOptions topk_options;
      topk_options.rerank_candidates = options.rerank_candidates;
      if (is_int8) topk_options.rerank_source = &ckpt_source;
      serve::TopKRetriever retriever(&qstore, topk_options);
      out.rerank_candidates =
          is_int8 ? serve::scoring::ResolveRerankCandidates(options.rerank_candidates,
                                                   k, n)
                  : 0;

      const auto got = retriever.Retrieve(queries.data(), num_queries, k);
      const auto got_ids = IdsOf(got);
      out.recall_at_k = eval::MeanRecallAtK(truth_ids, got_ids);
      out.hits_at_1 = eval::HitsAt1Agreement(truth_ids, got_ids);
      out.hits_at_1_delta = 1.0 - out.hits_at_1;
      if (is_int8) {
        // The self-contained configuration (stage-2 over dequantized
        // rows): what a deployment without the source checkpoint gets.
        serve::TopKOptions raw_options;
        raw_options.rerank_candidates = options.rerank_candidates;
        serve::TopKRetriever raw(&qstore, raw_options);
        out.recall_at_k_raw = eval::MeanRecallAtK(
            truth_ids, IdsOf(raw.Retrieve(queries.data(), num_queries, k)));
      } else {
        out.recall_at_k_raw = out.recall_at_k;
      }

      // Determinism gate: exact mode (re-rank all rows) must byte-equal
      // the dequantized brute-force reference over the same table.
      serve::TopKOptions exact_options;
      exact_options.rerank_candidates = -1;
      serve::TopKRetriever exact(&qstore, exact_options);
      out.bitexact_full =
          BitExact(exact.Retrieve(queries.data(), num_queries, k),
                   exact.RetrieveBruteForce(queries.data(), num_queries, k));
      if (is_int8) {
        // Stronger gate: exact mode refined with fp32 rows IS the fp32
        // baseline's brute force, bit for bit.
        serve::TopKOptions refined_exact_options;
        refined_exact_options.rerank_candidates = -1;
        refined_exact_options.rerank_source = &fp32_rows;
        serve::TopKRetriever refined_exact(&qstore, refined_exact_options);
        out.refined_exact_matches_fp32 = BitExact(
            refined_exact.Retrieve(queries.data(), num_queries, k), truth);
      }

      const bench::LatencyStats stats = bench::MeasureLatency(
          [&](const float* q, int64_t b, int64_t kk) {
            return retriever.Retrieve(q, b, kk);
          },
          queries.data(), num_queries, dim, k);
      out.mean_ms = stats.mean_ms;
      out.p50_ms = stats.p50_ms;
      out.p99_ms = stats.p99_ms;
      out.qps = stats.qps;

      bench_case.dtypes.push_back(std::move(out));
    }
    std::remove(source_path.c_str());
    report.cases.push_back(std::move(bench_case));

    obs::MetricsRegistry::Global()
        .GetGauge("quant.recall_at_k")
        .Set(report.cases.back().dtypes.back().recall_at_k);
  }
  return report;
}

}  // namespace desalign::index
