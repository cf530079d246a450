#include "index/retrieval_bench.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
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
using bench::JsonNum;
using serve::TopKResult;

/// One Retrieve of `count` queries at the case's k.
using RetrieveFn =
    std::function<std::vector<TopKResult>(const float*, int64_t count)>;

/// ids and scores byte-equal: the determinism-contract comparison.
bool BitExact(const std::vector<TopKResult>& a,
              const std::vector<TopKResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].ids != b[i].ids || a[i].scores != b[i].scores) return false;
  }
  return true;
}

/// Mean over queries of the share of the truth's ids found anywhere in
/// the answer; a query with an empty truth counts as 1.
double RecallAtK(const std::vector<TopKResult>& truth,
                 const std::vector<TopKResult>& got) {
  DESALIGN_CHECK_EQ(truth.size(), got.size());
  if (truth.empty()) return 1.0;
  double total = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const std::vector<int64_t>& want = truth[i].ids;
    if (want.empty()) {
      total += 1.0;
      continue;
    }
    int64_t hit = 0;
    for (const int64_t id : got[i].ids) {
      if (std::find(want.begin(), want.end(), id) != want.end()) ++hit;
    }
    total += static_cast<double>(hit) / static_cast<double>(want.size());
  }
  return total / static_cast<double>(truth.size());
}

/// Share of queries whose rank-1 id is the truth's: the serving-side
/// Hits@1. A query with an empty truth counts as agreeing.
double HitsAt1(const std::vector<TopKResult>& truth,
               const std::vector<TopKResult>& got) {
  DESALIGN_CHECK_EQ(truth.size(), got.size());
  if (truth.empty()) return 1.0;
  int64_t agree = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i].ids.empty() ||
        (!got[i].ids.empty() && got[i].ids[0] == truth[i].ids[0])) {
      ++agree;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(truth.size());
}

/// Times one Retrieve of the whole batch, then every query alone (a batch
/// of one, the online-serving shape), and scores the batch's answer
/// against `truth`.
void Measure(const RetrieveFn& retrieve, const float* queries,
             int64_t num_queries, int64_t dim,
             const std::vector<TopKResult>& truth, RetrievalBenchPath* path) {
  common::Stopwatch batch_clock;
  const std::vector<TopKResult> got = retrieve(queries, num_queries);
  path->batch_ms = batch_clock.ElapsedMillis();

  std::vector<double> ms(static_cast<size_t>(num_queries));
  common::Stopwatch total;
  for (int64_t i = 0; i < num_queries; ++i) {
    common::Stopwatch clock;
    const auto result = retrieve(queries + i * dim, 1);
    ms[static_cast<size_t>(i)] = clock.ElapsedMillis();
    DESALIGN_CHECK_EQ(static_cast<int64_t>(result.size()), 1);
  }
  const double total_s = total.ElapsedSeconds();
  double sum = 0.0;
  for (const double v : ms) sum += v;
  std::sort(ms.begin(), ms.end());
  const auto at = [&](double q) {
    return ms[static_cast<size_t>(q * static_cast<double>(num_queries - 1))];
  };
  path->mean_ms = sum / static_cast<double>(num_queries);
  path->p50_ms = at(0.5);
  path->p99_ms = at(0.99);
  path->qps =
      total_s > 0.0 ? static_cast<double>(num_queries) / total_s : 0.0;

  path->recall_at_k = RecallAtK(truth, got);
  path->recall_at_k_raw = path->recall_at_k;
  path->hits_at_1 = HitsAt1(truth, got);
  path->hits_at_1_delta = 1.0 - path->hits_at_1;
  path->bitexact = BitExact(truth, got);
}

const char* JsonBool(bool v) { return v ? "true" : "false"; }

}  // namespace

std::string RetrievalBenchReport::ToJson() const {
  std::ostringstream os;
  os << "{\"schema\":\"desalign.retrieval_bench.v1\",\"cases\":[";
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    if (i) os << ",";
    os << "{\"entities\":" << c.entities << ",\"dim\":" << c.dim
       << ",\"k\":" << c.k << ",\"num_centroids\":" << c.num_centroids
       << ",\"shards\":" << c.shards
       << ",\"build_ms\":" << JsonNum(c.build_ms)
       << ",\"truth_ms\":" << JsonNum(c.truth_ms) << ",\"paths\":[";
    for (size_t j = 0; j < c.paths.size(); ++j) {
      const auto& p = c.paths[j];
      if (j) os << ",";
      os << "{\"path\":\"" << p.path << "\",\"nprobe\":" << p.nprobe
         << ",\"table_bytes\":" << p.table_bytes
         << ",\"memory_reduction\":" << JsonNum(p.memory_reduction)
         << ",\"batch_ms\":" << JsonNum(p.batch_ms)
         << ",\"mean_ms\":" << JsonNum(p.mean_ms)
         << ",\"p50_ms\":" << JsonNum(p.p50_ms)
         << ",\"p99_ms\":" << JsonNum(p.p99_ms)
         << ",\"qps\":" << JsonNum(p.qps)
         << ",\"recall_at_k\":" << JsonNum(p.recall_at_k)
         << ",\"recall_at_k_raw\":" << JsonNum(p.recall_at_k_raw)
         << ",\"hits_at_1\":" << JsonNum(p.hits_at_1)
         << ",\"hits_at_1_delta\":" << JsonNum(p.hits_at_1_delta)
         << ",\"bitexact\":" << JsonBool(p.bitexact);
      if (p.bitexact_full) {
        os << ",\"bitexact_full\":" << JsonBool(*p.bitexact_full);
      }
      if (p.refined_exact_matches_fp32) {
        os << ",\"refined_exact_matches_fp32\":"
           << JsonBool(*p.refined_exact_matches_fp32);
      }
      os << ",\"mean_candidates\":" << JsonNum(p.mean_candidates)
         << ",\"rerank_candidates\":" << p.rerank_candidates << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

RetrievalBenchReport RunRetrievalBench(const RetrievalBenchOptions& options) {
  RetrievalBenchReport report;
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

  for (const int64_t n : entity_counts) {
    common::Rng rng(options.seed + static_cast<uint64_t>(n));
    const int64_t clusters =
        std::min(std::max<int64_t>(options.clusters, 1), n);
    const auto centers = bench::UnitCenters(rng, clusters, dim);
    auto store = serve::EmbeddingStore::FromRows(
        n, dim,
        bench::MixtureRows(rng, centers, clusters, n, dim, options.noise));
    const auto queries = bench::MixtureRows(rng, centers, clusters,
                                            num_queries, dim, options.noise);

    RetrievalBenchCase bench_case;
    bench_case.entities = n;
    bench_case.dim = dim;
    bench_case.k = std::min(options.k, n);
    const int64_t k = bench_case.k;
    const auto fp32_bytes =
        static_cast<int64_t>(store.Snapshot().MemoryBytes());
    // A case-local registry keeps the index.* and quant.* series of one
    // entity count apart.
    obs::MetricsRegistry registry;
    const auto retriever = [&](const serve::EmbeddingStore& table,
                               int64_t rerank,
                               const serve::RowSource* source) {
      serve::TopKOptions topk;
      topk.rerank_candidates = rerank;
      topk.rerank_source = source;
      topk.registry = &registry;
      return serve::TopKRetriever(&table, topk);
    };

    // The truth, once: the single-threaded exact reference over fp32.
    common::Stopwatch truth_clock;
    const auto truth = retriever(store, 0, nullptr)
                           .RetrieveBruteForce(queries.data(), num_queries, k);
    bench_case.truth_ms = truth_clock.ElapsedMillis();

    // Full-precision refinement for int8: the fp32 table as a checkpoint
    // on disk, read row by row in stage 2, so only the int8 table is
    // resident. The in-memory snapshot source holds the same values
    // (checked here) and stands in for the file in exact mode, which
    // fetches every row of every query.
    const std::string source_path =
        (std::filesystem::temp_directory_path() /
         ("desalign_retrieval_bench_" + std::to_string(::getpid()) + "_" +
          std::to_string(n) + ".dckpt"))
            .string();
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

    for (const nn::TensorDtype dtype :
         {nn::TensorDtype::kFloat32, nn::TensorDtype::kBf16,
          nn::TensorDtype::kInt8}) {
      auto quantized = store.Quantize(dtype);
      DESALIGN_CHECK(quantized.ok());
      const serve::EmbeddingStore table = std::move(quantized).value();
      const bool int8 = dtype == nn::TensorDtype::kInt8;

      RetrievalBenchPath path;
      path.path = nn::DtypeName(dtype);
      path.table_bytes = static_cast<int64_t>(table.Snapshot().MemoryBytes());
      path.memory_reduction = static_cast<double>(fp32_bytes) /
                              static_cast<double>(path.table_bytes);
      path.mean_candidates = static_cast<double>(n);
      path.rerank_candidates =
          int8 ? serve::scoring::ResolveRerankCandidates(
                     options.rerank_candidates, k, n)
               : 0;
      // The production configuration: int8 scans its codes and refines
      // the survivors from the checkpoint; fp32 and bf16 score in one
      // exact pass.
      const serve::TopKRetriever measured = retriever(
          table, options.rerank_candidates, int8 ? &ckpt_source : nullptr);
      Measure(
          [&](const float* q, int64_t count) {
            return measured.Retrieve(q, count, k);
          },
          queries.data(), num_queries, dim, truth, &path);
      if (int8) {
        path.recall_at_k_raw = RecallAtK(
            truth, retriever(table, options.rerank_candidates, nullptr)
                       .Retrieve(queries.data(), num_queries, k));
      }

      // Exact mode must byte-equal the brute-force reference over the
      // same table, which for fp32 is the truth itself.
      const serve::TopKRetriever exact = retriever(table, -1, nullptr);
      path.bitexact_full = BitExact(
          exact.Retrieve(queries.data(), num_queries, k),
          dtype == nn::TensorDtype::kFloat32
              ? truth
              : exact.RetrieveBruteForce(queries.data(), num_queries, k));
      if (int8) {
        // Refined from fp32 rows, exact mode is fp32 brute force.
        path.refined_exact_matches_fp32 = BitExact(
            retriever(table, -1, &fp32_rows)
                .Retrieve(queries.data(), num_queries, k),
            truth);
      }
      bench_case.paths.push_back(std::move(path));
    }
    std::filesystem::remove(source_path);

    IvfOptions ivf_options;
    ivf_options.num_centroids = options.num_centroids;
    ivf_options.nprobe = options.nprobe;
    ivf_options.num_shards = options.num_shards;
    ivf_options.seed = options.seed;
    ivf_options.registry = &registry;
    const IvfRetriever ivf(&store, ivf_options);
    bench_case.num_centroids = ivf.num_centroids();
    bench_case.shards = ivf.num_shards();
    bench_case.build_ms = ivf.last_build_ms();
    obs::Histogram& candidates =
        registry.GetHistogram("index.candidates_per_query");
    for (const auto& [name, nprobe] :
         {std::pair<const char*, int64_t>{"ivf_full", ivf.num_centroids()},
          {"ivf_partial", options.nprobe}}) {
      RetrievalBenchPath path;
      path.path = name;
      path.nprobe = std::clamp<int64_t>(
          nprobe, 1, std::max<int64_t>(ivf.num_centroids(), 1));
      path.table_bytes = fp32_bytes;
      path.memory_reduction = 1.0;
      candidates.Reset();
      Measure(
          [&](const float* q, int64_t count) {
            return ivf.RetrieveWithProbe(q, count, k, path.nprobe);
          },
          queries.data(), num_queries, dim, truth, &path);
      path.mean_candidates = candidates.Snapshot().mean;
      bench_case.paths.push_back(std::move(path));
    }

    report.cases.push_back(std::move(bench_case));
  }
  return report;
}

}  // namespace desalign::index
