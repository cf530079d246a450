// TSan stress for hot reload: query threads retrieving through
// TopKRetriever (and raw Snapshot readers) race a main thread that loops
// EmbeddingStore::Reload across two valid checkpoints of different row
// counts plus a corrupt file. The snapshot-swap design means every query
// must observe exactly one coherent table — fully-old or fully-new, never
// a mix — and the corrupt reload must fail without disturbing readers.

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "serve/embedding_store.h"
#include "serve/topk.h"

namespace desalign::serve {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kRowsA = 512;
constexpr int64_t kRowsB = 768;
constexpr int64_t kTopK = 8;

std::vector<float> RandomRows(int64_t rows, int64_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(rows * dim));
  for (auto& v : data) v = rng.UniformF(-1.0f, 1.0f);
  return data;
}

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("desalign_reload_race_" + tag + "_" + std::to_string(::getpid()) +
           ".ckpt"))
      .string();
}

TEST(ReloadRaceTest, QueriesRacingReloadSeeOneCoherentTable) {
  const std::string path_a = TempPath("a");
  const std::string path_b = TempPath("b");
  const std::string path_bad = TempPath("bad");

  const auto store_a =
      EmbeddingStore::FromRows(kRowsA, kDim, RandomRows(kRowsA, kDim, 11));
  const auto store_b =
      EmbeddingStore::FromRows(kRowsB, kDim, RandomRows(kRowsB, kDim, 12));
  ASSERT_TRUE(store_a.Save(path_a).ok());
  ASSERT_TRUE(store_b.Save(path_b).ok());
  std::ofstream(path_bad, std::ios::binary)
      << "definitely not a valid checkpoint";

  EmbeddingStore store(store_a);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries_served{0};
  // Each reader checks in as it enters its loop. The reload rounds take
  // only a few milliseconds, so they wait for every reader: otherwise they
  // can race the readers' start-up instead of their queries.
  std::atomic<int> readers_started{0};
  std::vector<std::thread> readers;

  // Retriever-path readers: every result must be internally consistent
  // with exactly one of the two valid tables.
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&store, &stop, &queries_served, &readers_started,
                          t] {
      common::ThreadPool pool(1);
      TopKOptions options;
      options.pool = &pool;
      const TopKRetriever retriever(&store, options);
      common::Rng rng(100 + static_cast<uint64_t>(t));
      std::vector<float> query(static_cast<size_t>(kDim));
      readers_started.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& v : query) v = rng.UniformF(-1.0f, 1.0f);
        const auto results = retriever.Retrieve(query.data(), 1, kTopK);
        ASSERT_EQ(results.size(), 1u);
        const auto& r = results[0];
        ASSERT_EQ(r.ids.size(), static_cast<size_t>(kTopK));
        ASSERT_EQ(r.scores.size(), r.ids.size());
        for (size_t i = 0; i < r.ids.size(); ++i) {
          ASSERT_GE(r.ids[i], 0);
          ASSERT_LT(r.ids[i], kRowsB);  // max of the two tables
          if (i > 0) {
            ASSERT_LE(r.scores[i], r.scores[i - 1]);
          }
        }
        queries_served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Raw snapshot readers: a snapshot's size/dim/data must agree with each
  // other for the snapshot's whole lifetime even while reloads swap the
  // current table underneath.
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&store, &stop, &readers_started] {
      readers_started.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        const EmbeddingSnapshot snap = store.Snapshot();
        const int64_t rows = snap.size();
        ASSERT_TRUE(rows == kRowsA || rows == kRowsB) << rows;
        ASSERT_EQ(snap.dim(), kDim);
        ASSERT_EQ(snap.data().size(), static_cast<size_t>(rows * kDim));
        // Touch first and last row through the snapshot.
        float checksum = snap.row(0)[0] + snap.row(rows - 1)[kDim - 1];
        ASSERT_TRUE(checksum == checksum);  // not NaN
      }
    });
  }

  while (readers_started.load() < static_cast<int>(readers.size())) {
    std::this_thread::yield();
  }
  ReloadOptions fast;
  fast.max_attempts = 1;
  fast.backoff_ms = 0.0;
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(store.Reload(path_b, fast).ok());
    EXPECT_FALSE(store.Reload(path_bad, fast).ok());
    ASSERT_TRUE(store.Reload(path_a, fast).ok());
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : readers) thread.join();
  EXPECT_GT(queries_served.load(), 0);

  std::error_code ec;
  std::filesystem::remove(path_a, ec);
  std::filesystem::remove(path_b, ec);
  std::filesystem::remove(path_bad, ec);
}

TEST(ReloadRaceTest, SnapshotTakenBeforeReloadStaysBitIdentical) {
  const std::string path = TempPath("pin");
  const auto next =
      EmbeddingStore::FromRows(kRowsB, kDim, RandomRows(kRowsB, kDim, 21));
  ASSERT_TRUE(next.Save(path).ok());

  auto store =
      EmbeddingStore::FromRows(kRowsA, kDim, RandomRows(kRowsA, kDim, 22));
  const EmbeddingSnapshot pinned = store.Snapshot();
  const std::vector<float> before = pinned.data();

  ASSERT_TRUE(store.Reload(path).ok());
  EXPECT_EQ(store.size(), kRowsB);
  // The pre-reload snapshot still sees the old table, byte for byte.
  EXPECT_EQ(pinned.size(), kRowsA);
  EXPECT_EQ(pinned.data(), before);

  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace
}  // namespace desalign::serve
