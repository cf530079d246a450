#include "index/index_bench.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "eval/retrieval_metrics.h"
#include "index/ivf.h"
#include "obs/metrics.h"
#include "serve/bench_util.h"
#include "serve/embedding_store.h"
#include "serve/topk.h"

namespace desalign::index {

namespace {

namespace bench = serve::bench;
using bench::BitExact;
using bench::JsonNum;
using bench::MixtureRows;
using bench::UnitCenters;
using serve::TopKResult;

double MeanRecall(const std::vector<TopKResult>& truth,
                  const std::vector<TopKResult>& got) {
  return eval::MeanRecallAtK(bench::IdsOf(truth), bench::IdsOf(got));
}

void FillLatency(const bench::LatencyStats& stats, IndexBenchPath* out) {
  out->mean_ms = stats.mean_ms;
  out->p50_ms = stats.p50_ms;
  out->p99_ms = stats.p99_ms;
  out->qps = stats.qps;
}

}  // namespace

std::string IndexBenchReport::ToJson() const {
  std::ostringstream os;
  os << "{\"schema\":\"desalign.index_bench.v1\",\"cases\":[";
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    if (i) os << ",";
    os << "{\"entities\":" << c.entities << ",\"dim\":" << c.dim
       << ",\"k\":" << c.k << ",\"num_centroids\":" << c.num_centroids
       << ",\"shards\":" << c.shards
       << ",\"build_ms\":" << JsonNum(c.build_ms) << ",\"paths\":[";
    for (size_t j = 0; j < c.paths.size(); ++j) {
      const auto& p = c.paths[j];
      if (j) os << ",";
      os << "{\"path\":\"" << p.path << "\",\"nprobe\":" << p.nprobe
         << ",\"mean_ms\":" << JsonNum(p.mean_ms)
         << ",\"p50_ms\":" << JsonNum(p.p50_ms)
         << ",\"p99_ms\":" << JsonNum(p.p99_ms)
         << ",\"qps\":" << JsonNum(p.qps)
         << ",\"recall_at_k\":" << JsonNum(p.recall_at_k)
         << ",\"bitexact\":" << (p.bitexact ? "true" : "false")
         << ",\"mean_candidates\":" << JsonNum(p.mean_candidates) << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

IndexBenchReport RunIndexBench(const IndexBenchOptions& options) {
  IndexBenchReport report;
  std::vector<int64_t> entity_counts = options.entity_counts;
  if (options.smoke && !entity_counts.empty()) {
    entity_counts = {*std::min_element(entity_counts.begin(),
                                       entity_counts.end())};
  }
  const int64_t num_queries =
      std::max<int64_t>(options.smoke ? std::min<int64_t>(options.queries, 128)
                                      : options.queries,
                        1);
  const int64_t dim = std::max<int64_t>(options.dim, 4);

  for (const int64_t n : entity_counts) {
    common::Rng rng(options.seed + static_cast<uint64_t>(n));
    const int64_t clusters =
        std::min(std::max<int64_t>(options.clusters, 1), n);
    const auto centers = UnitCenters(rng, clusters, dim);
    auto store = serve::EmbeddingStore::FromRows(
        n, dim, MixtureRows(rng, centers, clusters, n, dim, options.noise));
    const auto queries =
        MixtureRows(rng, centers, clusters, num_queries, dim, options.noise);

    IndexBenchCase bench_case;
    bench_case.entities = n;
    bench_case.dim = dim;
    bench_case.k = std::min(options.k, n);

    // A case-local registry keeps index.* counters attributable to one
    // (path, entity count) pair; the recall gauge is mirrored globally.
    obs::MetricsRegistry registry;
    obs::Histogram& candidates =
        registry.GetHistogram("index.candidates_per_query");

    serve::TopKRetriever brute(&store);
    IvfOptions ivf_options;
    ivf_options.num_centroids = options.num_centroids;
    ivf_options.nprobe = options.nprobe;
    ivf_options.num_shards = options.num_shards;
    ivf_options.seed = options.seed;
    ivf_options.registry = &registry;
    IvfRetriever ivf(&store, ivf_options);
    bench_case.num_centroids = ivf.num_centroids();
    bench_case.shards = ivf.num_shards();
    bench_case.build_ms = ivf.last_build_ms();

    // Ground truth once, from the single-threaded exact reference.
    const auto truth =
        brute.RetrieveBruteForce(queries.data(), num_queries, bench_case.k);

    {
      IndexBenchPath path;
      path.path = "brute";
      path.recall_at_k = 1.0;
      path.bitexact = true;
      path.mean_candidates = static_cast<double>(n);
      FillLatency(bench::MeasureLatency(
                      [&](const float* q, int64_t b, int64_t k) {
                        return brute.Retrieve(q, b, k);
                      },
                      queries.data(), num_queries, dim, bench_case.k),
                  &path);
      bench_case.paths.push_back(std::move(path));
    }

    const auto measure_ivf = [&](const std::string& name, int64_t nprobe) {
      IndexBenchPath path;
      path.path = name;
      path.nprobe = std::min(std::max<int64_t>(nprobe, 1),
                             std::max<int64_t>(ivf.num_centroids(), 1));
      const auto got = ivf.RetrieveWithProbe(queries.data(), num_queries,
                                             bench_case.k, path.nprobe);
      path.recall_at_k = MeanRecall(truth, got);
      path.bitexact = BitExact(truth, got);
      candidates.Reset();
      FillLatency(bench::MeasureLatency(
                      [&](const float* q, int64_t b, int64_t k) {
                        return ivf.RetrieveWithProbe(q, b, k, path.nprobe);
                      },
                      queries.data(), num_queries, dim, bench_case.k),
                  &path);
      const auto snapshot = candidates.Snapshot();
      path.mean_candidates = snapshot.mean;
      const double recall = path.recall_at_k;
      bench_case.paths.push_back(std::move(path));
      return recall;
    };

    measure_ivf("ivf_full", ivf.num_centroids());
    const double partial_recall = measure_ivf("ivf_partial", options.nprobe);
    registry.GetGauge("index.recall_at_k").Set(partial_recall);
    obs::MetricsRegistry::Global()
        .GetGauge("index.recall_at_k")
        .Set(partial_recall);

    report.cases.push_back(std::move(bench_case));
  }
  return report;
}

}  // namespace desalign::index
