#include "index/ivf.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/quant.h"
#include "obs/metrics.h"
#include "serve/embedding_store.h"
#include "serve/topk.h"

namespace desalign::index {
namespace {

using serve::EmbeddingStore;
using serve::TopKResult;

std::vector<float> RandomRows(int64_t rows, int64_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(rows * dim));
  for (auto& v : data) v = rng.UniformF(-1.0f, 1.0f);
  return data;
}

/// Clustered rows: `clusters` random unit centers plus small noise. IVF
/// recall statements only mean something on data with cluster structure.
std::vector<float> ClusteredRows(int64_t rows, int64_t dim, int64_t clusters,
                                 uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> centers(static_cast<size_t>(clusters * dim));
  for (auto& v : centers) v = rng.UniformF(-1.0f, 1.0f);
  serve::L2NormalizeRows(centers.data(), clusters, dim);
  std::vector<float> data(static_cast<size_t>(rows * dim));
  for (int64_t i = 0; i < rows; ++i) {
    const float* center = centers.data() + rng.UniformInt(clusters) * dim;
    for (int64_t j = 0; j < dim; ++j) {
      data[static_cast<size_t>(i * dim + j)] =
          center[j] + 0.2f * rng.UniformF(-1.0f, 1.0f);
    }
  }
  return data;
}

void ExpectSameResults(const std::vector<TopKResult>& actual,
                       const std::vector<TopKResult>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].ids, expected[i].ids) << "query " << i;
    EXPECT_EQ(actual[i].scores, expected[i].scores) << "query " << i;
  }
}

TEST(IvfRetrieverTest, FullProbeBitExactVsBruteForceAcrossShardsAndThreads) {
  // The acceptance oracle: nprobe = num_centroids scans every inverted
  // list, so the candidate set is the whole table and the shared total
  // order forces byte-identical output — per thread count AND shard count.
  const int64_t dim = 16;
  const int64_t n = 500;
  auto store = EmbeddingStore::FromRows(n, dim, RandomRows(n, dim, 3));
  serve::TopKRetriever brute(&store);
  const auto queries = RandomRows(37, dim, 101);
  for (const int threads : {1, 2, 5}) {
    common::ThreadPool pool(threads);
    for (const int shards : {1, 3, 8}) {
      IvfOptions options;
      options.num_centroids = 20;
      options.num_shards = shards;
      options.pool = &pool;
      IvfRetriever ivf(&store, options);
      ASSERT_EQ(ivf.num_centroids(), 20);
      ASSERT_EQ(ivf.num_shards(), shards);
      for (const int64_t k : {1, 10, 500}) {
        const auto expected = brute.RetrieveBruteForce(queries.data(), 37, k);
        const auto actual =
            ivf.RetrieveWithProbe(queries.data(), 37, k, /*nprobe=*/20);
        ExpectSameResults(actual, expected);
      }
    }
  }
}

TEST(IvfRetrieverTest, PartialProbeIsDeterministicAcrossShardsAndThreads) {
  const int64_t dim = 12;
  const int64_t n = 800;
  auto store =
      EmbeddingStore::FromRows(n, dim, ClusteredRows(n, dim, 16, 5));
  const auto queries = ClusteredRows(25, dim, 16, 77);
  std::vector<TopKResult> reference;
  for (const int threads : {1, 2, 5}) {
    common::ThreadPool pool(threads);
    for (const int shards : {1, 4, 7}) {
      IvfOptions options;
      options.num_centroids = 16;
      options.num_shards = shards;
      options.pool = &pool;
      IvfRetriever ivf(&store, options);
      const auto got = ivf.RetrieveWithProbe(queries.data(), 25, 10, 4);
      if (reference.empty()) {
        reference = got;
      } else {
        ExpectSameResults(got, reference);
      }
    }
  }
}

TEST(IvfRetrieverTest, PartialProbeRecallFloorOnClusteredData) {
  const int64_t dim = 32;
  const int64_t n = 5000;
  auto store =
      EmbeddingStore::FromRows(n, dim, ClusteredRows(n, dim, 32, 9));
  serve::TopKRetriever brute(&store);
  IvfOptions options;
  options.num_centroids = 32;
  options.nprobe = 8;
  IvfRetriever ivf(&store, options);
  const int64_t num_queries = 50;
  const auto queries = ClusteredRows(num_queries, dim, 32, 123);
  const auto truth = brute.RetrieveBruteForce(queries.data(), num_queries, 10);
  const auto got = ivf.Retrieve(queries.data(), num_queries, 10);
  double recall = 0.0;
  for (int64_t i = 0; i < num_queries; ++i) {
    int64_t hit = 0;
    for (const int64_t id : got[static_cast<size_t>(i)].ids) {
      for (const int64_t t : truth[static_cast<size_t>(i)].ids) {
        if (id == t) {
          ++hit;
          break;
        }
      }
    }
    recall += static_cast<double>(hit) / 10.0;
  }
  recall /= static_cast<double>(num_queries);
  EXPECT_GE(recall, 0.95) << "recall@10 with nprobe=8/32";
}

TEST(IvfRetrieverTest, EdgeCasesMatchRetrieverContract) {
  const int64_t dim = 8;
  auto store = EmbeddingStore::FromRows(6, dim, RandomRows(6, dim, 21));
  IvfOptions options;
  options.num_centroids = 3;
  IvfRetriever ivf(&store, options);
  const auto queries = RandomRows(2, dim, 22);
  // k = 0 and k < 0: per-query results exist but are empty.
  for (const int64_t k : {int64_t{0}, int64_t{-4}}) {
    const auto results = ivf.Retrieve(queries.data(), 2, k);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ids.empty());
    EXPECT_TRUE(results[1].ids.empty());
  }
  // k > size: clamped to every entity, still fully ranked.
  const auto clamped = ivf.RetrieveWithProbe(queries.data(), 2, 99, 3);
  ASSERT_EQ(clamped.size(), 2u);
  EXPECT_EQ(clamped[0].ids.size(), 6u);
  // Zero queries.
  EXPECT_TRUE(ivf.Retrieve(nullptr, 0, 5).empty());
  // nprobe out of range is clamped, not rejected.
  const auto wide = ivf.RetrieveWithProbe(queries.data(), 2, 3, 999);
  ASSERT_EQ(wide.size(), 2u);
  EXPECT_EQ(wide[0].ids.size(), 3u);
}

TEST(IvfRetrieverTest, EmptyStoreServesEmptyResults) {
  EmbeddingStore store;
  IvfRetriever ivf(&store);
  EXPECT_EQ(ivf.size(), 0);
  EXPECT_EQ(ivf.num_centroids(), 0);
  const std::vector<float> query = {1.0f, 0.0f};
  const auto results = ivf.Retrieve(query.data(), 1, 5);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ids.empty());
}

TEST(IvfRetrieverTest, DuplicateRowsTieBreakTowardSmallerId) {
  // Same contract as TopKRetriever: exact score ties rank by id.
  std::vector<float> data = {1, 0, 1, 0, 0, 1, 1, 0};
  auto store = EmbeddingStore::FromRows(4, 2, data);
  IvfOptions options;
  options.num_centroids = 2;
  IvfRetriever ivf(&store, options);
  const std::vector<float> query = {1, 0};
  const auto results = ivf.RetrieveWithProbe(query.data(), 1, 3, 2);
  EXPECT_EQ(results[0].ids, (std::vector<int64_t>{0, 1, 3}));
}

TEST(IvfRetrieverTest, MetricsAreWired) {
  obs::MetricsRegistry registry;
  const int64_t dim = 8;
  auto store = EmbeddingStore::FromRows(50, dim, RandomRows(50, dim, 31));
  IvfOptions options;
  options.num_centroids = 5;
  options.nprobe = 2;
  options.registry = &registry;
  IvfRetriever ivf(&store, options);
  EXPECT_EQ(registry.GetCounter("index.builds").value(), 1);
  EXPECT_GE(registry.GetGauge("index.build_ms").value(), 0.0);
  const auto queries = RandomRows(4, dim, 32);
  (void)ivf.Retrieve(queries.data(), 4, 3);
  EXPECT_EQ(registry.GetCounter("index.queries").value(), 4);
  EXPECT_EQ(registry.GetCounter("index.probes").value(), 8);
  EXPECT_EQ(
      registry.GetHistogram("index.candidates_per_query").count(), 4);
  EXPECT_EQ(registry.GetCounter("quant.bf16_queries").value(), 0);

  auto bf16 = std::move(store.Quantize(nn::TensorDtype::kBf16).value());
  IvfRetriever bf16_ivf(&bf16, options);
  (void)bf16_ivf.Retrieve(queries.data(), 4, 3);
  EXPECT_EQ(registry.GetCounter("quant.bf16_queries").value(), 4);
}

TEST(IvfRetrieverTest, DegradationRungsShrinkTheProbe) {
  // Every rung at or past kReducedProbe probes max(1, nprobe / 4) cells,
  // here 2 of 8; kNone serves the full probe again.
  obs::MetricsRegistry registry;
  const int64_t dim = 16;
  const int64_t n = 1200;
  auto store = EmbeddingStore::FromRows(
      n, dim, ClusteredRows(n, dim, 16, 81));
  auto qstore = std::move(store.Quantize(nn::TensorDtype::kInt8).value());
  const auto queries = ClusteredRows(20, dim, 16, 82);
  IvfOptions options;
  options.num_centroids = 16;
  options.nprobe = 8;
  options.registry = &registry;
  const IvfRetriever ivf(&qstore, options);
  const obs::Counter& probes = registry.GetCounter("index.probes");

  const auto reduced = ivf.RetrieveWithProbe(queries.data(), 20, 10, 2);
  for (const auto level : {serve::DegradationLevel::kReducedProbe,
                           serve::DegradationLevel::kNoRefine}) {
    const int64_t before = probes.value();
    ExpectSameResults(ivf.RetrieveDegraded(queries.data(), 20, 10, level),
                      reduced);
    EXPECT_EQ(probes.value() - before, 20 * 2);
  }
  const int64_t before = probes.value();
  ExpectSameResults(ivf.RetrieveDegraded(queries.data(), 20, 10,
                                         serve::DegradationLevel::kNone),
                    ivf.Retrieve(queries.data(), 20, 10));
  EXPECT_EQ(probes.value() - before, 2 * 20 * 8);
}

class IvfReloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("desalign_ivf_" + std::to_string(::getpid()) + ".ckpt"))
                .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

TEST_F(IvfReloadTest, ReloadAndRebuildServesNewSnapshot) {
  const int64_t dim = 8;
  auto store = EmbeddingStore::FromRows(40, dim, RandomRows(40, dim, 41));
  IvfOptions options;
  options.num_centroids = 4;
  IvfRetriever ivf(&store, options);
  EXPECT_EQ(ivf.size(), 40);

  const auto next =
      EmbeddingStore::FromRows(70, dim, RandomRows(70, dim, 42));
  ASSERT_TRUE(next.Save(path_).ok());
  ASSERT_TRUE(ivf.ReloadAndRebuild(path_).ok());
  EXPECT_EQ(ivf.size(), 70);
  EXPECT_EQ(store.size(), 70);

  // The rebuilt index must rank the new table exactly.
  serve::TopKRetriever brute(&store);
  const auto queries = RandomRows(9, dim, 43);
  ExpectSameResults(
      ivf.RetrieveWithProbe(queries.data(), 9, 7, ivf.num_centroids()),
      brute.RetrieveBruteForce(queries.data(), 9, 7));
}

TEST_F(IvfReloadTest, FailedReloadKeepsServingOldIndex) {
  const int64_t dim = 8;
  auto store = EmbeddingStore::FromRows(40, dim, RandomRows(40, dim, 51));
  IvfOptions options;
  options.num_centroids = 4;
  IvfRetriever ivf(&store, options);
  const auto queries = RandomRows(5, dim, 52);
  const auto before = ivf.Retrieve(queries.data(), 5, 3);

  std::ofstream(path_, std::ios::binary) << "corrupted snapshot bytes";
  serve::ReloadOptions reload;
  reload.max_attempts = 2;
  reload.backoff_ms = 0.0;
  ASSERT_FALSE(ivf.ReloadAndRebuild(path_, reload).ok());
  EXPECT_EQ(ivf.size(), 40);
  ExpectSameResults(ivf.Retrieve(queries.data(), 5, 3), before);
}

TEST(RetrieverFactoryTest, ParsesKindAndBuildsMatchingRetriever) {
  ASSERT_TRUE(ParseRetrieverKind("brute").ok());
  ASSERT_TRUE(ParseRetrieverKind("ivf").ok());
  EXPECT_FALSE(ParseRetrieverKind("hnsw").ok());

  const int64_t dim = 8;
  auto store = EmbeddingStore::FromRows(30, dim, RandomRows(30, dim, 61));
  RetrieverConfig config;
  config.kind = RetrieverKind::kBruteForce;
  const auto brute = MakeRetriever(&store, config);
  ASSERT_NE(dynamic_cast<serve::TopKRetriever*>(brute.get()), nullptr);
  config.kind = RetrieverKind::kIvf;
  config.ivf.num_centroids = 30;  // full probe via nprobe clamp below
  config.ivf.nprobe = 30;
  const auto ivf = MakeRetriever(&store, config);
  ASSERT_NE(dynamic_cast<IvfRetriever*>(ivf.get()), nullptr);
  // Both implement the same contract; at full probe, the same bytes.
  const auto queries = RandomRows(6, dim, 62);
  ExpectSameResults(ivf->Retrieve(queries.data(), 6, 4),
                    brute->Retrieve(queries.data(), 6, 4));
}

TEST(IvfRetrieverTest, ConcurrentReloadAndQueriesStayConsistent) {
  // TSan-checked: queries racing ReloadAndRebuild must each see one
  // coherent (snapshot, lists) pair — sizes from exactly one table.
  const int64_t dim = 8;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("desalign_ivf_race_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  auto store = EmbeddingStore::FromRows(64, dim, RandomRows(64, dim, 71));
  const auto bigger =
      EmbeddingStore::FromRows(96, dim, RandomRows(96, dim, 72));
  ASSERT_TRUE(bigger.Save(path).ok());

  IvfOptions options;
  options.num_centroids = 8;
  common::ThreadPool inline_pool(1);
  options.pool = &inline_pool;
  IvfRetriever ivf(&store, options);

  std::atomic<bool> stop{false};
  std::thread querier([&] {
    common::Rng rng(73);
    std::vector<float> query(static_cast<size_t>(dim));
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& v : query) v = rng.UniformF(-1.0f, 1.0f);
      const auto results = ivf.Retrieve(query.data(), 1, 5);
      ASSERT_EQ(results.size(), 1u);
      ASSERT_EQ(results[0].ids.size(), 5u);
      for (const int64_t id : results[0].ids) {
        ASSERT_GE(id, 0);
        ASSERT_LT(id, 96);
      }
    }
  });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ivf.ReloadAndRebuild(path).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace
}  // namespace desalign::index
