// Determinism suite for the quantized serving path: the int8 candidate
// scan + fp32 re-rank (and the bf16 single-pass scan) must return
// bit-identical results across thread counts, block sizes, shard counts
// and kernel ISA, and IVF over a quantized table at full probe with exact
// re-rank must reproduce the dequantized brute-force reference byte for
// byte. Any
// divergence here means a float accumulated in a thread-dependent order —
// exactly the bug class the serving determinism contract forbids.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/ivf.h"
#include "nn/quant.h"
#include "serve/embedding_store.h"
#include "serve/row_source.h"
#include "serve/topk.h"
#include "tensor/kernels/dispatch.h"

namespace desalign {
namespace {

using nn::TensorDtype;
using serve::EmbeddingStore;
using serve::TopKResult;

constexpr int64_t kRows = 1500;
constexpr int64_t kDim = 24;
constexpr int64_t kQueries = 12;
constexpr int64_t kTopK = 7;

EmbeddingStore MakeStore(uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(kRows * kDim));
  for (auto& v : data) v = rng.UniformF(-1.0f, 1.0f);
  return EmbeddingStore::FromRows(kRows, kDim, std::move(data));
}

std::vector<float> MakeQueries(uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> q(static_cast<size_t>(kQueries * kDim));
  for (auto& v : q) v = rng.UniformF(-1.0f, 1.0f);
  return q;
}

void ExpectSameResults(const std::vector<TopKResult>& a,
                       const std::vector<TopKResult>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ids, b[i].ids) << what << ", query " << i;
    ASSERT_EQ(a[i].scores, b[i].scores) << what << ", query " << i;
  }
}

class IsaGuard {
 public:
  ~IsaGuard() {
    tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kScalar,
                                    /*has_override=*/false);
  }
};

TEST(QuantDeterminismTest, TopKIdenticalAcrossThreadsBlocksAndIsa) {
  IsaGuard guard;
  const auto store = MakeStore(31);
  const auto queries = MakeQueries(32);

  for (const TensorDtype dtype : {TensorDtype::kInt8, TensorDtype::kBf16}) {
    EmbeddingStore qstore = std::move(store.Quantize(dtype).value());
    std::vector<std::vector<TopKResult>> runs;
    for (const int threads : {1, 4, 7}) {
      for (const int64_t block_rows : {64, 256, 1024}) {
        for (const auto isa : {tensor::kernels::IsaLevel::kScalar,
                               tensor::kernels::IsaLevel::kAvx2}) {
          tensor::kernels::SetIsaOverride(isa);
          common::ThreadPool pool(threads);
          serve::TopKOptions options;
          options.pool = &pool;
          options.block_rows = block_rows;
          const serve::TopKRetriever retriever(&qstore, options);
          runs.push_back(retriever.Retrieve(queries.data(), kQueries, kTopK));
        }
      }
    }
    for (size_t r = 1; r < runs.size(); ++r) {
      ExpectSameResults(runs[0], runs[r],
                        std::string(nn::DtypeName(dtype)) + " config " +
                            std::to_string(r));
    }
  }
}

TEST(QuantDeterminismTest, ExactModeMatchesDequantizedBruteForce) {
  IsaGuard guard;
  const auto store = MakeStore(33);
  const auto queries = MakeQueries(34);
  EmbeddingStore qstore =
      std::move(store.Quantize(TensorDtype::kInt8).value());

  serve::TopKOptions exact;
  exact.rerank_candidates = -1;  // re-rank all rows in fp32
  const serve::TopKRetriever retriever(&qstore, exact);
  const auto reference =
      retriever.RetrieveBruteForce(queries.data(), kQueries, kTopK);
  for (const auto isa : {tensor::kernels::IsaLevel::kScalar,
                         tensor::kernels::IsaLevel::kAvx2}) {
    tensor::kernels::SetIsaOverride(isa);
    ExpectSameResults(retriever.Retrieve(queries.data(), kQueries, kTopK),
                      reference,
                      std::string("exact mode, ") +
                          tensor::kernels::IsaName(isa));
  }
}

TEST(QuantDeterminismTest, IvfOverInt8IdenticalAcrossShardsAndThreads) {
  IsaGuard guard;
  auto store = MakeStore(35);
  const auto queries = MakeQueries(36);

  for (const TensorDtype dtype : {TensorDtype::kInt8, TensorDtype::kBf16}) {
    EmbeddingStore qstore = std::move(store.Quantize(dtype).value());
    std::vector<std::vector<TopKResult>> runs;
    for (const int threads : {1, 4}) {
      common::ThreadPool pool(threads);
      for (const int shards : {1, 3, 4}) {
        for (const auto isa : {tensor::kernels::IsaLevel::kScalar,
                               tensor::kernels::IsaLevel::kAvx2}) {
          tensor::kernels::SetIsaOverride(isa);
          index::IvfOptions options;
          options.pool = &pool;
          options.num_shards = shards;
          options.num_centroids = 16;
          options.nprobe = 4;
          const index::IvfRetriever ivf(&qstore, options);
          runs.push_back(ivf.Retrieve(queries.data(), kQueries, kTopK));
        }
      }
    }
    for (size_t r = 1; r < runs.size(); ++r) {
      ExpectSameResults(runs[0], runs[r],
                        std::string(nn::DtypeName(dtype)) + " ivf config " +
                            std::to_string(r));
    }
  }
}

TEST(QuantDeterminismTest, IvfFullProbeExactRerankMatchesBruteForce) {
  IsaGuard guard;
  auto store = MakeStore(37);
  const auto queries = MakeQueries(38);

  for (const TensorDtype dtype : {TensorDtype::kInt8, TensorDtype::kBf16}) {
    EmbeddingStore qstore = std::move(store.Quantize(dtype).value());
    serve::TopKOptions exact;
    exact.rerank_candidates = -1;
    const serve::TopKRetriever brute(&qstore, exact);
    const auto reference =
        brute.RetrieveBruteForce(queries.data(), kQueries, kTopK);

    index::IvfOptions options;
    options.num_centroids = 16;
    options.num_shards = 3;
    options.rerank_candidates = -1;  // exact fp32 re-rank of every candidate
    const index::IvfRetriever ivf(&qstore, options);
    ExpectSameResults(
        ivf.RetrieveWithProbe(queries.data(), kQueries, kTopK,
                              ivf.num_centroids()),
        reference, std::string(nn::DtypeName(dtype)) + " ivf full probe");
  }
}

TEST(QuantDeterminismTest, RefinedRerankIdenticalAcrossThreadsAndIsa) {
  // Full-precision refinement fetches stage-2 rows from a checkpoint on
  // disk with pread, concurrently from every worker thread. The fetched
  // bytes are position-addressed and immutable, so refined results must
  // stay bit-identical across thread counts and ISA — and equal to the
  // in-memory snapshot-source run.
  IsaGuard guard;
  const auto store = MakeStore(41);
  const auto queries = MakeQueries(42);
  const std::string path = "/tmp/desalign_quant_determinism_" +
                           std::to_string(::getpid()) + ".dckpt";
  ASSERT_TRUE(store.Save(path).ok());
  auto opened = serve::CheckpointRowSource::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const serve::CheckpointRowSource file_source = std::move(opened).value();
  const serve::SnapshotRowSource memory_source(store.Snapshot());

  EmbeddingStore qstore =
      std::move(store.Quantize(TensorDtype::kInt8).value());
  serve::TopKOptions reference_options;
  reference_options.rerank_source = &memory_source;
  const serve::TopKRetriever reference_retriever(&qstore, reference_options);
  const auto reference =
      reference_retriever.Retrieve(queries.data(), kQueries, kTopK);

  for (const int threads : {1, 4}) {
    common::ThreadPool pool(threads);
    for (const auto isa : {tensor::kernels::IsaLevel::kScalar,
                           tensor::kernels::IsaLevel::kAvx2}) {
      tensor::kernels::SetIsaOverride(isa);
      serve::TopKOptions options;
      options.pool = &pool;
      options.rerank_source = &file_source;
      const serve::TopKRetriever retriever(&qstore, options);
      ExpectSameResults(retriever.Retrieve(queries.data(), kQueries, kTopK),
                        reference,
                        std::string("refined, ") +
                            tensor::kernels::IsaName(isa) + ", " +
                            std::to_string(threads) + " threads");
    }
  }
  std::remove(path.c_str());
}

TEST(QuantDeterminismTest, QuantizationItselfIsDeterministic) {
  // Two independent Quantize calls over the same fp32 table produce byte-
  // identical codes/scales — calibration has no hidden RNG or wall clock.
  const auto store = MakeStore(39);
  for (const TensorDtype dtype : {TensorDtype::kInt8, TensorDtype::kBf16}) {
    EmbeddingStore a = std::move(store.Quantize(dtype).value());
    EmbeddingStore b = std::move(store.Quantize(dtype).value());
    const auto sa = a.Snapshot();
    const auto sb = b.Snapshot();
    std::vector<float> scratch_a(kDim), scratch_b(kDim);
    for (int64_t i = 0; i < kRows; ++i) {
      const float* ra = sa.RowAsFloat(i, scratch_a.data());
      const float* rb = sb.RowAsFloat(i, scratch_b.data());
      for (int64_t j = 0; j < kDim; ++j) {
        ASSERT_EQ(ra[j], rb[j]) << "row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace desalign
