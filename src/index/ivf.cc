#include "index/ivf.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "serve/scoring.h"

namespace desalign::index {

namespace {

using serve::scoring::BoundedTopK;
using serve::scoring::Dot;

int64_t ResolveCentroids(int64_t requested, int64_t n) {
  if (n <= 0) return 0;
  if (requested > 0) return std::min(requested, n);
  const auto root = static_cast<int64_t>(
      std::llround(std::ceil(std::sqrt(static_cast<double>(n)))));
  return std::min(std::max<int64_t>(root, 1), n);
}

}  // namespace

IvfRetriever::IvfRetriever(serve::EmbeddingStore* store, IvfOptions options)
    : store_(store), options_(options) {
  DESALIGN_CHECK(store_ != nullptr);
  obs::MetricsRegistry& registry = options_.registry != nullptr
                                       ? *options_.registry
                                       : obs::MetricsRegistry::Global();
  builds_ = &registry.GetCounter("index.builds");
  build_ms_ = &registry.GetGauge("index.build_ms");
  queries_ = &registry.GetCounter("index.queries");
  probes_ = &registry.GetCounter("index.probes");
  candidates_ = &registry.GetHistogram(
      "index.candidates_per_query",
      obs::Histogram::ExponentialBuckets(1.0, 2.0, 30));
  int8_queries_ = &registry.GetCounter("quant.int8_queries");
  rerank_width_ = &registry.GetHistogram(
      "quant.rerank_candidates",
      obs::Histogram::ExponentialBuckets(1.0, 2.0, 30));
  Rebuild();
}

std::shared_ptr<const IvfRetriever::Built> IvfRetriever::Current() const {
  common::MutexLock lock(mutex_);
  return built_;
}

void IvfRetriever::Rebuild() {
  common::Stopwatch build_clock;
  auto built = std::make_shared<Built>();
  built->snap = store_->Snapshot();
  const serve::EmbeddingSnapshot& snap = built->snap;
  const int64_t n = snap.size();
  const int64_t dim = snap.dim();
  if (n > 0) {
    KMeansOptions kopts;
    kopts.num_centroids = ResolveCentroids(options_.num_centroids, n);
    kopts.iterations = options_.kmeans_iterations;
    kopts.seed = options_.seed;
    kopts.sample_rows = options_.kmeans_sample_rows;
    kopts.pool = options_.pool;
    built->coarse = TrainKMeans(snap, kopts);
    const int64_t k = built->coarse.num_centroids;

    const int num_shards = static_cast<int>(std::min<int64_t>(
        std::max(options_.num_shards, 1), n));
    built->shards.resize(static_cast<size_t>(num_shards));
    common::ThreadPool& pool = options_.pool != nullptr
                                   ? *options_.pool
                                   : common::ThreadPool::Global();
    // Shard s owns rows [s*n/S, (s+1)*n/S): a pure function of (s, n, S).
    // Shards build independently, so this fan-out cannot reorder anything
    // observable — each shard's lists depend only on its own row range.
    pool.ParallelFor(
        0, num_shards,
        [&](int64_t sb, int64_t se) {
          std::vector<float> scratch(static_cast<size_t>(dim));
          std::vector<float> distances(static_cast<size_t>(k));
          for (int64_t s = sb; s < se; ++s) {
            Shard& shard = built->shards[static_cast<size_t>(s)];
            shard.begin = s * n / num_shards;
            shard.end = (s + 1) * n / num_shards;
            const int64_t rows = shard.end - shard.begin;
            std::vector<int64_t> assign(static_cast<size_t>(rows));
            for (int64_t i = 0; i < rows; ++i) {
              // RowAsFloat dequantizes deterministically, so a row's cell
              // is the same whatever shard/thread assigns it.
              assign[static_cast<size_t>(i)] = NearestCentroid(
                  built->coarse,
                  snap.RowAsFloat(shard.begin + i, scratch.data()),
                  distances.data());
            }
            // Counting sort by centroid: rows are visited in ascending id
            // order, so every inverted list comes out id-ascending.
            shard.list_start.assign(static_cast<size_t>(k + 1), 0);
            for (int64_t i = 0; i < rows; ++i) {
              ++shard.list_start[static_cast<size_t>(
                  assign[static_cast<size_t>(i)] + 1)];
            }
            std::partial_sum(shard.list_start.begin(), shard.list_start.end(),
                             shard.list_start.begin());
            shard.entries.resize(static_cast<size_t>(rows));
            std::vector<int64_t> cursor(shard.list_start.begin(),
                                        shard.list_start.end() - 1);
            for (int64_t i = 0; i < rows; ++i) {
              const auto c =
                  static_cast<size_t>(assign[static_cast<size_t>(i)]);
              shard.entries[static_cast<size_t>(cursor[c]++)] =
                  shard.begin + i;
            }
          }
        },
        /*grain=*/1);
  }
  built->build_ms = build_clock.ElapsedMillis();
  builds_->Increment();
  build_ms_->Set(built->build_ms);
  common::MutexLock lock(mutex_);
  built_ = std::move(built);
}

common::Status IvfRetriever::ReloadAndRebuild(
    const std::string& path, const serve::ReloadOptions& options,
    serve::ServeStats* stats) {
  const common::Status status = store_->Reload(path, options, stats);
  // On failure the store kept its last-good table and this index still
  // serves the (snapshot, lists) pair it was built from.
  if (!status.ok()) return status;
  Rebuild();
  return common::Status::Ok();
}

std::vector<serve::TopKResult> IvfRetriever::Retrieve(const float* queries,
                                                      int64_t num_queries,
                                                      int64_t k) const {
  return RetrieveWithProbe(queries, num_queries, k, options_.nprobe);
}

std::vector<serve::TopKResult> IvfRetriever::RetrieveDegraded(
    const float* queries, int64_t num_queries, int64_t k,
    serve::DegradationLevel level) const {
  if (level < serve::DegradationLevel::kReducedProbe) {
    return Retrieve(queries, num_queries, k);
  }
  int64_t nprobe = options_.degraded_nprobe > 0
                       ? options_.degraded_nprobe
                       : std::max<int64_t>(1, options_.nprobe / 4);
  nprobe = std::min(std::max<int64_t>(nprobe, 1), options_.nprobe);
  return RetrieveWithProbe(queries, num_queries, k, nprobe);
}

std::vector<serve::TopKResult> IvfRetriever::RetrieveWithProbe(
    const float* queries, int64_t num_queries, int64_t k,
    int64_t nprobe) const {
  std::vector<serve::TopKResult> results(
      num_queries > 0 ? static_cast<size_t>(num_queries) : 0);
  if (num_queries <= 0) return results;
  const std::shared_ptr<const Built> built = Current();
  const serve::EmbeddingSnapshot& snap = built->snap;
  const int64_t n = snap.size();
  k = std::min(k, n);
  if (k <= 0) return results;
  const int64_t d = snap.dim();
  const int64_t nc = built->coarse.num_centroids;
  nprobe = std::min(std::max<int64_t>(nprobe, 1), nc);

  std::vector<float> q(queries, queries + num_queries * d);
  serve::L2NormalizeRows(q.data(), num_queries, d);

  const nn::TensorDtype dtype = snap.dtype();
  const int64_t rerank =
      serve::ResolveRerankCandidates(options_.rerank_candidates, k, n);

  common::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : common::ThreadPool::Global();
  pool.ParallelFor(
      0, num_queries,
      [&](int64_t qb, int64_t qe) {
        std::vector<float> scratch(static_cast<size_t>(d));
        std::vector<float> distances(static_cast<size_t>(nc));
        for (int64_t i = qb; i < qe; ++i) {
          const float* qi = q.data() + i * d;
          // Stage 1: nearest cells by squared L2, ties toward the smaller
          // centroid id — the same rule assignment used at build time.
          CentroidDistances(built->coarse, qi, distances.data());
          BoundedTopK probe(nprobe);
          for (int64_t c = 0; c < nc; ++c) {
            probe.Offer(-distances[static_cast<size_t>(c)], c);
          }
          const std::vector<int64_t> cells = probe.FinishIds();
          // Stage 2: re-rank every entity in a probed list. The shard x
          // cell visit order is irrelevant to the output — the candidate
          // set is a set, and scoring::Better is total. fp32/bf16 rows are
          // scored exactly in one pass; int8 rows go through the integer
          // scan first, with only the best `rerank` survivors re-scored in
          // fp32 (see docs/SERVING.md "Quantized serving").
          BoundedTopK heap(dtype == nn::TensorDtype::kInt8 ? rerank : k);
          int64_t offered = 0;
          serve::scoring::Int8Query qq;
          if (dtype == nn::TensorDtype::kInt8) {
            qq = serve::scoring::QuantizeQuery(qi, d);
          }
          for (const Shard& shard : built->shards) {
            for (const int64_t c : cells) {
              const int64_t lb = shard.list_start[static_cast<size_t>(c)];
              const int64_t le = shard.list_start[static_cast<size_t>(c + 1)];
              for (int64_t e = lb; e < le; ++e) {
                const int64_t id = shard.entries[static_cast<size_t>(e)];
                if (dtype == nn::TensorDtype::kInt8) {
                  heap.Offer(serve::scoring::Int8Score(
                                 qq, snap.codes_row(id), snap.scale(id), d),
                             id);
                } else {
                  heap.Offer(Dot(qi, snap.RowAsFloat(id, scratch.data()), d),
                             id);
                }
              }
              offered += le - lb;
            }
          }
          if (dtype == nn::TensorDtype::kInt8) {
            BoundedTopK final_heap(k);
            for (const int64_t id : heap.FinishIds()) {
              final_heap.Offer(Dot(qi, snap.RowAsFloat(id, scratch.data()),
                                   d),
                               id);
            }
            results[static_cast<size_t>(i)] = final_heap.Finish();
          } else {
            results[static_cast<size_t>(i)] = heap.Finish();
          }
          candidates_->Record(static_cast<double>(offered));
        }
      },
      /*grain=*/1);
  queries_->Increment(num_queries);
  probes_->Increment(num_queries * nprobe);
  if (dtype == nn::TensorDtype::kInt8) {
    int8_queries_->Increment(num_queries);
    rerank_width_->Record(static_cast<double>(rerank));
  }
  return results;
}

int64_t IvfRetriever::dim() const { return Current()->snap.dim(); }

int64_t IvfRetriever::size() const { return Current()->snap.size(); }

int64_t IvfRetriever::num_centroids() const {
  return Current()->coarse.num_centroids;
}

int IvfRetriever::num_shards() const {
  return static_cast<int>(Current()->shards.size());
}

double IvfRetriever::last_build_ms() const { return Current()->build_ms; }

common::Result<RetrieverKind> ParseRetrieverKind(const std::string& name) {
  if (name == "brute") return RetrieverKind::kBruteForce;
  if (name == "ivf") return RetrieverKind::kIvf;
  return common::Status::InvalidArgument(
      "unknown retriever kind '" + name + "' (expected brute|ivf)");
}

std::unique_ptr<serve::Retriever> MakeRetriever(serve::EmbeddingStore* store,
                                                const RetrieverConfig& config) {
  if (config.kind == RetrieverKind::kIvf) {
    return std::make_unique<IvfRetriever>(store, config.ivf);
  }
  return std::make_unique<serve::TopKRetriever>(store, config.topk);
}

}  // namespace desalign::index
