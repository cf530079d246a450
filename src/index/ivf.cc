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

// Fixed k-means schedule of the coarse quantizer. Sampling keeps build
// time flat in the table size.
constexpr int kKMeansIterations = 8;
constexpr int64_t kKMeansSampleRows = 65536;

int64_t ResolveCentroids(int64_t requested, int64_t n) {
  if (n <= 0) return 0;
  if (requested > 0) return std::min(requested, n);
  const auto root = static_cast<int64_t>(
      std::llround(std::ceil(std::sqrt(static_cast<double>(n)))));
  return std::min(std::max<int64_t>(root, 1), n);
}

}  // namespace

IvfRetriever::IvfRetriever(serve::EmbeddingStore* store, IvfOptions options)
    : store_(store),
      options_(options),
      scorer_(options.rerank_candidates, options.pool, options.registry) {
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
    kopts.iterations = kKMeansIterations;
    kopts.seed = options_.seed;
    kopts.sample_rows = kKMeansSampleRows;
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
  return RetrieveWithProbe(queries, num_queries, k,
                           level >= serve::DegradationLevel::kReducedProbe
                               ? std::max<int64_t>(1, options_.nprobe / 4)
                               : options_.nprobe);
}

std::vector<serve::TopKResult> IvfRetriever::RetrieveWithProbe(
    const float* queries, int64_t num_queries, int64_t k,
    int64_t nprobe) const {
  const std::shared_ptr<const Built> built = Current();
  const int64_t nc = built->coarse.num_centroids;
  nprobe = std::min(std::max<int64_t>(nprobe, 1), nc);
  return scorer_.Score(
      built->snap, queries, num_queries, k, /*source=*/nullptr,
      [&](serve::scoring::ChunkScorer& chunk) {
        std::vector<float> distances(static_cast<size_t>(nc));
        std::vector<serve::scoring::IdRange> lists;
        lists.reserve(built->shards.size() * static_cast<size_t>(nprobe));
        for (int64_t i = chunk.begin(); i < chunk.end(); ++i) {
          // Nearest cells by squared L2, ties toward the smaller centroid
          // id — the same rule assignment used at build time.
          CentroidDistances(built->coarse, chunk.query(i), distances.data());
          BoundedTopK probe(nprobe);
          for (int64_t c = 0; c < nc; ++c) {
            probe.Offer(-distances[static_cast<size_t>(c)], c);
          }
          // Every entity of a probed list is a candidate. The shard x cell
          // visit order is irrelevant to the output: the candidate set is
          // a set, and scoring::Better is total.
          lists.clear();
          for (const Shard& shard : built->shards) {
            for (const serve::scoring::Candidate& cell : probe.entries()) {
              const auto c = static_cast<size_t>(cell.id);
              const int64_t lb = shard.list_start[c];
              const int64_t le = shard.list_start[c + 1];
              lists.push_back({shard.entries.data() + lb, le - lb});
            }
          }
          candidates_->Record(static_cast<double>(chunk.ScoreIds(i, lists)));
        }
        queries_->Increment(chunk.end() - chunk.begin());
        probes_->Increment((chunk.end() - chunk.begin()) * nprobe);
      });
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
