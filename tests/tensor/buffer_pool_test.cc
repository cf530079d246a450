// BufferPool unit tests: bucketing, zeroing guarantees, stats accounting,
// the disabled (pre-pool) fallback, and an 8-thread acquire/release storm.
// The storm is also part of the sanitizer subset, so it runs under TSan and
// ASan in CI.

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/kernels/buffer_pool.h"
#include "tensor/tensor.h"

namespace desalign::tensor::kernels {
namespace {

TEST(BufferPoolTest, AcquireReturnsRequestedSize) {
  BufferPool pool;
  for (size_t n : {size_t{1}, size_t{255}, size_t{256}, size_t{257},
                   size_t{1000}, size_t{65536}}) {
    auto buf = pool.Acquire(n, /*zero=*/false);
    EXPECT_EQ(buf.size(), n);
    pool.Release(std::move(buf));
  }
}

TEST(BufferPoolTest, ReuseHitsTheSameBucket) {
  BufferPool pool;
  auto buf = pool.Acquire(300, /*zero=*/false);
  float* original_ptr = buf.data();
  pool.Release(std::move(buf));
  // 300 and 400 both round up to the 512-float bucket, so the second
  // acquisition must reuse the cached allocation.
  auto again = pool.Acquire(400, /*zero=*/false);
  EXPECT_EQ(again.data(), original_ptr);
  const auto stats = pool.GetStats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.releases, 1);
  pool.Release(std::move(again));
}

TEST(BufferPoolTest, ZeroedAcquireIsZeroEvenAfterDirtyRelease) {
  BufferPool pool;
  auto dirty = pool.Acquire(512, /*zero=*/false);
  for (auto& v : dirty) v = 3.25f;
  pool.Release(std::move(dirty));
  auto clean = pool.Acquire(512, /*zero=*/true);
  for (float v : clean) ASSERT_EQ(v, 0.0f);
  pool.Release(std::move(clean));
}

TEST(BufferPoolTest, TinyRequestsRoundUpToTheSmallestBucket) {
  // Acquire(8) reserves the full 256-float minimum bucket capacity, so the
  // buffer is cacheable on release and can serve any small request later.
  BufferPool pool;
  auto tiny = pool.Acquire(8, /*zero=*/false);
  EXPECT_GE(tiny.capacity(), size_t{1} << BufferPool::kMinCapacityLog2);
  pool.Release(std::move(tiny));
  EXPECT_EQ(pool.GetStats().cached_buffers, 1);
  auto reuse = pool.Acquire(200, /*zero=*/false);
  EXPECT_EQ(pool.GetStats().hits, 1);
  pool.Release(std::move(reuse));
}

TEST(BufferPoolTest, SubBucketExternalBuffersAreDiscarded) {
  // Buffers that did not come from Acquire (e.g. Tensor::FromData storage)
  // may have less capacity than the smallest bucket; caching them would
  // poison the bucket with undersized storage, so Release drops them.
  BufferPool pool;
  std::vector<float> external(8, 1.0f);
  external.shrink_to_fit();
  pool.Release(std::move(external));
  const auto stats = pool.GetStats();
  EXPECT_EQ(stats.discards, 1);
  EXPECT_EQ(stats.cached_buffers, 0);
}

TEST(BufferPoolTest, ForeignBufferBetweenBucketsIsDiscarded) {
  // A vector sized by its owner (a 20 000 x 128 table adopted by
  // Tensor::FromData, say) has a capacity no Acquire asks for: requests of
  // its size route to the next bucket up. Caching it would hold its memory
  // forever, so Release frees it.
  BufferPool pool;
  pool.Release(pool.Acquire(1000, /*zero=*/false));
  const auto before = pool.GetStats();
  std::vector<float> foreign(1000, 1.0f);
  ASSERT_EQ(foreign.capacity(), 1000u);
  pool.Release(std::move(foreign));
  const auto after = pool.GetStats();
  EXPECT_EQ(after.discards, before.discards + 1);
  EXPECT_EQ(after.releases, before.releases);
  EXPECT_EQ(after.cached_buffers, before.cached_buffers);
  EXPECT_EQ(after.cached_bytes, before.cached_bytes);
}

TEST(BufferPoolTest, FullBucketDiscardsExtraReleases) {
  BufferPool pool;
  std::vector<std::vector<float>> live;
  for (size_t i = 0; i < BufferPool::kMaxBuffersPerBucket + 5; ++i) {
    live.push_back(pool.Acquire(1 << BufferPool::kMinCapacityLog2,
                                /*zero=*/false));
  }
  for (auto& buf : live) pool.Release(std::move(buf));
  const auto stats = pool.GetStats();
  EXPECT_EQ(stats.cached_buffers,
            static_cast<int64_t>(BufferPool::kMaxBuffersPerBucket));
  EXPECT_EQ(stats.discards, 5);
}

TEST(BufferPoolTest, ClearDropsCachedBuffers) {
  BufferPool pool;
  pool.Release(pool.Acquire(1024, /*zero=*/false));
  ASSERT_GT(pool.GetStats().cached_buffers, 0);
  pool.Clear();
  EXPECT_EQ(pool.GetStats().cached_buffers, 0);
  EXPECT_EQ(pool.GetStats().cached_bytes, 0);
}

TEST(BufferPoolTest, DisabledPoolStillServesCorrectBuffers) {
  BufferPool pool;
  pool.set_enabled(false);
  auto zeroed = pool.Acquire(700, /*zero=*/true);
  EXPECT_EQ(zeroed.size(), 700u);
  for (float v : zeroed) ASSERT_EQ(v, 0.0f);
  pool.Release(std::move(zeroed));
  EXPECT_EQ(pool.GetStats().cached_buffers, 0);
  auto plain = pool.Acquire(700, /*zero=*/false);
  EXPECT_EQ(plain.size(), 700u);
  pool.Release(std::move(plain));
}

TEST(BufferPoolTest, StatsAreCoherentUnderConcurrency) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, t] {
      common::Rng rng(static_cast<uint64_t>(1000 + t));
      std::vector<std::vector<float>> held;
      for (int i = 0; i < kItersPerThread; ++i) {
        const size_t n = 64 + static_cast<size_t>(rng.UniformInt(4096));
        const bool zero = rng.Bernoulli(0.5);
        auto buf = pool.Acquire(n, zero);
        ASSERT_EQ(buf.size(), n);
        if (zero) {
          ASSERT_EQ(buf[0], 0.0f);
          ASSERT_EQ(buf[n - 1], 0.0f);
        }
        buf[0] = static_cast<float>(t);  // dirty it for the next user
        held.push_back(std::move(buf));
        if (held.size() > 4 || rng.Bernoulli(0.3)) {
          pool.Release(std::move(held.back()));
          held.pop_back();
        }
      }
      for (auto& buf : held) pool.Release(std::move(buf));
    });
  }
  for (auto& w : workers) w.join();
  const auto stats = pool.GetStats();
  const int64_t total = kThreads * static_cast<int64_t>(kItersPerThread);
  EXPECT_EQ(stats.hits + stats.misses, total);
  EXPECT_EQ(stats.releases + stats.discards, total);
  EXPECT_GT(stats.hits, 0);
}

TEST(BufferPoolTest, PooledBufferRoundTripsThroughGlobalPool) {
  auto& pool = BufferPool::Global();
  pool.Clear();
  {
    PooledBuffer ws(2048, /*zero=*/true);
    ASSERT_EQ(ws.size(), 2048u);
    for (size_t i = 0; i < ws.size(); ++i) ws.data()[i] = 1.0f;
  }
  const auto before = pool.GetStats();
  {
    PooledBuffer again(2048, /*zero=*/false);
    ASSERT_EQ(again.size(), 2048u);
  }
  const auto after = pool.GetStats();
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(BufferPoolTest, FromDataAdoptsWithoutTouchingThePool) {
  auto& pool = BufferPool::Global();
  const auto before = pool.GetStats();
  auto t = Tensor::FromData(20, 50, std::vector<float>(1000, 0.5f));
  const auto adopted = pool.GetStats();
  EXPECT_EQ(adopted.hits, before.hits);
  EXPECT_EQ(adopted.misses, before.misses);
  // 1000 floats is no bucket size: on destruction the vector is freed.
  t.reset();
  const auto freed = pool.GetStats();
  EXPECT_EQ(freed.discards, adopted.discards + 1);
  EXPECT_EQ(freed.cached_bytes, adopted.cached_bytes);
}

TEST(BufferPoolTest, TensorStorageComesFromTheGlobalPool) {
  auto& pool = BufferPool::Global();
  { auto warm = Tensor::Create(64, 64); }
  const auto before = pool.GetStats();
  { auto t = Tensor::Create(64, 64); }
  const auto after = pool.GetStats();
  EXPECT_GE(after.hits, before.hits + 1);
  EXPECT_GE(after.releases, before.releases + 1);
}

}  // namespace
}  // namespace desalign::tensor::kernels
