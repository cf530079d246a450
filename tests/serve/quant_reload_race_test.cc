// TSan stress for dtype-swapping hot reload: query threads retrieving
// through TopKRetriever race a main thread that reloads the store across
// an fp32 checkpoint, its int8 quantization and its bf16 quantization (all
// of the same dim). The snapshot-swap design must give every query exactly
// one coherent (dtype, payload) pair — an int8 scan must never read fp32
// bytes or a stale scale array — and a corrupt reload in the middle of the
// rotation must leave readers undisturbed.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/quant.h"
#include "serve/embedding_store.h"
#include "serve/topk.h"

namespace desalign::serve {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kRows = 512;
constexpr int64_t kTopK = 8;

std::vector<float> RandomRows(int64_t rows, int64_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(rows * dim));
  for (auto& v : data) v = rng.UniformF(-1.0f, 1.0f);
  return data;
}

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("desalign_quant_reload_" + tag + "_" + std::to_string(::getpid()) +
           ".dckpt"))
      .string();
}

TEST(QuantReloadRaceTest, DtypeSwapsUnderConcurrentReadersStayCoherent) {
  const std::string path_fp32 = TempPath("fp32");
  const std::string path_int8 = TempPath("int8");
  const std::string path_bf16 = TempPath("bf16");
  const std::string path_bad = TempPath("bad");

  const auto fp32_store =
      EmbeddingStore::FromRows(kRows, kDim, RandomRows(kRows, kDim, 41));
  ASSERT_TRUE(fp32_store.Save(path_fp32).ok());
  ASSERT_TRUE(fp32_store.Quantize(nn::TensorDtype::kInt8)
                  .value()
                  .Save(path_int8)
                  .ok());
  ASSERT_TRUE(fp32_store.Quantize(nn::TensorDtype::kBf16)
                  .value()
                  .Save(path_bf16)
                  .ok());
  std::ofstream(path_bad, std::ios::binary) << "not a checkpoint";

  EmbeddingStore store(fp32_store);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries_served{0};
  std::vector<std::thread> readers;

  // Retriever readers: the dtype may change between queries, but every
  // single result must be a well-formed top-k over *some* full table.
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&store, &stop, &queries_served, t] {
      common::ThreadPool pool(1);
      TopKOptions options;
      options.pool = &pool;
      const TopKRetriever retriever(&store, options);
      common::Rng rng(200 + static_cast<uint64_t>(t));
      std::vector<float> query(static_cast<size_t>(kDim));
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& v : query) v = rng.UniformF(-1.0f, 1.0f);
        const auto results = retriever.Retrieve(query.data(), 1, kTopK);
        ASSERT_EQ(results.size(), 1u);
        const auto& r = results[0];
        ASSERT_EQ(r.ids.size(), static_cast<size_t>(kTopK));
        for (size_t i = 0; i < r.ids.size(); ++i) {
          ASSERT_GE(r.ids[i], 0);
          ASSERT_LT(r.ids[i], kRows);
          if (i > 0) {
            ASSERT_LE(r.scores[i], r.scores[i - 1]);
          }
        }
        queries_served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Raw snapshot readers: a pinned snapshot's dtype and payloads must stay
  // mutually consistent for the snapshot's whole lifetime, across swaps.
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&store, &stop] {
      std::vector<float> scratch(static_cast<size_t>(kDim));
      while (!stop.load(std::memory_order_relaxed)) {
        const EmbeddingSnapshot snap = store.Snapshot();
        ASSERT_EQ(snap.size(), kRows);
        ASSERT_EQ(snap.dim(), kDim);
        // RowAsFloat must be servable for every dtype; NaN would mean a
        // torn (dtype, payload) pair.
        const float* first = snap.RowAsFloat(0, scratch.data());
        const float* last = snap.RowAsFloat(kRows - 1, scratch.data());
        ASSERT_TRUE(first[0] == first[0]);
        ASSERT_TRUE(last[kDim - 1] == last[kDim - 1]);
        if (snap.dtype() == nn::TensorDtype::kInt8) {
          // A coherent int8 table always has its scale array populated.
          ASSERT_GE(snap.scale(kRows - 1), 0.0f);
        }
      }
    });
  }

  // The 120 reloads below take a few milliseconds, less than a loaded
  // host may take to schedule a new thread, so the storm starts only once
  // a retriever reader is live (bounded, in case the readers fail).
  const auto live_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (queries_served.load() == 0 &&
         std::chrono::steady_clock::now() < live_by) {
    std::this_thread::yield();
  }

  ReloadOptions fast;
  fast.max_attempts = 1;
  fast.backoff_ms = 0.0;
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(store.Reload(path_int8, fast).ok());
    ASSERT_TRUE(store.Reload(path_bf16, fast).ok());
    EXPECT_FALSE(store.Reload(path_bad, fast).ok());
    ASSERT_TRUE(store.Reload(path_fp32, fast).ok());
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : readers) thread.join();
  EXPECT_GT(queries_served.load(), 0);

  std::error_code ec;
  std::filesystem::remove(path_fp32, ec);
  std::filesystem::remove(path_int8, ec);
  std::filesystem::remove(path_bf16, ec);
  std::filesystem::remove(path_bad, ec);
}

TEST(QuantReloadRaceTest, PinnedSnapshotOutlivesDtypeSwap) {
  const std::string path = TempPath("pin");
  auto store =
      EmbeddingStore::FromRows(kRows, kDim, RandomRows(kRows, kDim, 42));
  ASSERT_TRUE(
      store.Quantize(nn::TensorDtype::kInt8).value().Save(path).ok());

  const EmbeddingSnapshot pinned = store.Snapshot();
  ASSERT_EQ(pinned.dtype(), nn::TensorDtype::kFloat32);
  const std::vector<float> before = pinned.data();

  ASSERT_TRUE(store.Reload(path).ok());
  EXPECT_EQ(store.Snapshot().dtype(), nn::TensorDtype::kInt8);
  // The pre-reload snapshot still sees the fp32 table, byte for byte.
  EXPECT_EQ(pinned.dtype(), nn::TensorDtype::kFloat32);
  EXPECT_EQ(pinned.data(), before);

  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace
}  // namespace desalign::serve
