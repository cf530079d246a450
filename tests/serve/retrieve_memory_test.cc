// Bounded memory on the retrieval path. An int8 call in exact mode
// (rerank_candidates < 0, so C = n) covers every candidate with C: stage 1
// would keep them all, so it is skipped and no heap is ever sized to the
// table. IVF walks query by query and finishes each before the next, so a
// worker holds one query's stage-1 heap at a time. The test replaces the
// global operator new to measure the bytes live during one call; that is
// also why it stays out of the sanitizer subset, whose runtimes bring
// their own operator new.

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>  // desalign-lint: allow(naked-new) a header, no allocation
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/ivf.h"
#include "nn/quant.h"
#include "serve/embedding_store.h"
#include "serve/scoring.h"
#include "serve/topk.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void* CountedAlloc(size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) return nullptr;
  const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live = g_live_bytes.fetch_add(bytes) + bytes;
  int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void* CountedAllocOrThrow(size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)));
  std::free(p);
}

}  // namespace

void* operator new(size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](size_t size) { return CountedAllocOrThrow(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace desalign::serve {
namespace {

constexpr int64_t kRows = 40000;
constexpr int64_t kDim = 16;
constexpr int64_t kQueries = 64;
constexpr int64_t kTopK = 10;
// One heap sized to the whole table.
constexpr int64_t kTableHeapBytes = kRows * sizeof(scoring::Candidate);

// The most bytes live at once during `call`, above those live before it.
int64_t PeakBytes(const std::function<void()>& call) {
  const int64_t base = g_live_bytes.load();
  g_peak_bytes.store(base);
  call();
  return g_peak_bytes.load() - base;
}

std::vector<float> RandomRows(int64_t rows, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(rows * kDim));
  for (auto& x : v) x = rng.UniformF(-1.0f, 1.0f);
  return v;
}

class RetrieveMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto fp32 =
        EmbeddingStore::FromRows(kRows, kDim, RandomRows(kRows, 91));
    int8_ = std::move(fp32.Quantize(nn::TensorDtype::kInt8).value());
    queries_ = RandomRows(kQueries, 92);
  }

  EmbeddingStore int8_;
  std::vector<float> queries_;
};

TEST_F(RetrieveMemoryTest, ExactModeSizesNoHeapToTheTable) {
  for (const int threads : {1, 4}) {
    common::ThreadPool pool(threads);
    TopKOptions topk;
    topk.pool = &pool;
    topk.rerank_candidates = -1;
    const TopKRetriever brute(&int8_, topk);
    EXPECT_LT(PeakBytes([&] {
                (void)brute.Retrieve(queries_.data(), kQueries, kTopK);
              }),
              kTableHeapBytes)
        << "brute force, " << threads << " threads";

    index::IvfOptions options;
    options.pool = &pool;
    options.rerank_candidates = -1;
    const index::IvfRetriever ivf(&int8_, options);
    for (const int64_t nprobe : {int64_t{2}, ivf.num_centroids()}) {
      EXPECT_LT(PeakBytes([&] {
                  (void)ivf.RetrieveWithProbe(queries_.data(), kQueries,
                                              kTopK, nprobe);
                }),
                kTableHeapBytes)
          << "ivf nprobe " << nprobe << ", " << threads << " threads";
    }
  }
}

TEST_F(RetrieveMemoryTest, IvfHoldsOneStage1HeapAtATime) {
  // At full probe every query offers all n rows, more than C = n / 4, so
  // every query runs both stages. One worker holds a single C-sized heap
  // at a time, not one heap per query of its chunk, and stage 2 walks
  // that heap in place: no sorted copy of the survivors' ids (C x 8 B)
  // sits beside it. Measured: 197 KB for a 160 KB heap; 278 KB with the
  // id copy.
  const int64_t rerank = kRows / 4;
  common::ThreadPool pool(1);
  index::IvfOptions options;
  options.pool = &pool;
  options.rerank_candidates = rerank;
  const index::IvfRetriever ivf(&int8_, options);
  const auto heap_bytes =
      static_cast<int64_t>(rerank * sizeof(scoring::Candidate));
  EXPECT_LT(PeakBytes([&] {
              (void)ivf.RetrieveWithProbe(queries_.data(), kQueries, kTopK,
                                          ivf.num_centroids());
            }),
            heap_bytes + heap_bytes / 2);
}

}  // namespace
}  // namespace desalign::serve
