#ifndef DESALIGN_TENSOR_KERNELS_BUFFER_POOL_H_
#define DESALIGN_TENSOR_KERNELS_BUFFER_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace desalign::tensor::kernels {

/// Thread-safe recycling pool for float buffers, backing Tensor storage and
/// kernel workspaces. Buffers are bucketed by power-of-two capacity
/// (smallest bucket 256 floats = 1 KiB); Acquire pops from the bucket whose
/// capacity covers the request, Release pushes back for reuse. After the
/// first few training steps touch every live shape, the epoch loop runs at
/// ~100% hit rate — i.e. zero malloc/free for tensor data, gradients and
/// temporaries in steady state. Hit/miss/release/discard counts are exported
/// through obs::MetricsRegistry as `tensor.pool.*`.
///
/// Memory bound: the pool caches only buffers whose capacity is exactly a
/// bucket's capacity — the size Acquire allocates — and frees every other
/// buffer it is handed (a vector Tensor::FromData adopted, say), counting
/// it as a discard. Acquire allocates in a bucket only when that bucket's
/// free list is empty, so bucket b never caches more buffers than were
/// live in b at one time. (A foreign vector whose capacity happens to be
/// exactly a bucket size is cached like a pooled one.)
///
/// Determinism: the pool only changes *where* a buffer's memory comes from,
/// never its contents as observed by kernels — `zero=true` acquisitions are
/// always fully zeroed, and `zero=false` acquisitions are only handed to
/// code that overwrites every element before reading. The integration suite
/// asserts byte-identical training artifacts with the pool on vs. off.
class BufferPool {
 public:
  struct Stats {
    int64_t hits = 0;       // Acquire served from a free list
    int64_t misses = 0;     // Acquire fell through to operator new
    int64_t releases = 0;   // buffers returned and cached
    int64_t discards = 0;   // buffers returned but freed (not bucket-sized,
                            // or the bucket is full)
    int64_t cached_buffers = 0;
    int64_t cached_bytes = 0;

    double HitRate() const {
      const int64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };

  /// Process-wide pool (lazily constructed, never destroyed — Tensor
  /// destructors may run during static teardown).
  static BufferPool& Global();

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a vector with size() == n. `zero=true` guarantees all-zero
  /// contents; `zero=false` leaves contents unspecified (possibly stale data
  /// from a previous user) and the caller must write every element before
  /// reading. Falls back to a plain allocation when the pool is disabled.
  std::vector<float> Acquire(size_t n, bool zero);

  /// Returns a buffer to the pool. It is cached only when its capacity is
  /// exactly a bucket size; otherwise — and when the pool is disabled or
  /// the bucket is full — it is freed. `buf` is empty on return either
  /// way. Safe to call with a moved-from/empty vector.
  void Release(std::vector<float>&& buf);

  /// When disabled, Acquire allocates fresh zeroed storage and Release
  /// frees — the exact pre-pool behaviour. Flipped by the determinism suite
  /// and the benchmark's "pre-PR baseline" mode; not intended to change
  /// mid-training.
  bool enabled() const;
  void set_enabled(bool enabled);

  /// Drops all cached buffers (cumulative counters are preserved).
  void Clear();

  /// Zeroes the cumulative hit/miss/release/discard counters (cached
  /// buffers stay cached).
  void ResetStats();

  Stats GetStats() const;

  // Buckets cover capacities 2^8 .. 2^31 floats (1 KiB .. 8 GiB).
  static constexpr int kMinCapacityLog2 = 8;
  static constexpr int kNumBuckets = 24;
  // Per-bucket count cap. Deliberately generous: an autograd step keeps its
  // forward graph (often thousands of small tensors) live until backward
  // finishes, and a bucket must absorb that peak for the next step to run
  // allocation-free. Cached memory is bounded by the invariant in the class
  // comment, not by this cap. Clear() trims it explicitly.
  static constexpr size_t kMaxBuffersPerBucket = 4096;

 private:

  // Smallest bucket whose capacity holds `n` floats, or -1 when n exceeds
  // the largest bucket (the request bypasses the pool).
  static int BucketForRequest(size_t n);
  // The bucket whose capacity is exactly `capacity`, or -1 when `capacity`
  // is not a bucket size (the buffer was not allocated by Acquire).
  static int BucketForCapacity(size_t capacity);

  mutable common::Mutex mutex_;
  std::vector<std::vector<float>> buckets_[kNumBuckets] GUARDED_BY(mutex_);
  bool enabled_ GUARDED_BY(mutex_) = true;
  Stats stats_ GUARDED_BY(mutex_);
};

/// RAII workspace buffer for kernel/op temporaries: acquires from the global
/// pool on construction, releases on destruction. Copying acquires a fresh
/// buffer and copies contents (needed because autograd backward closures are
/// stored in copyable std::function objects; in practice the closures are
/// only moved).
class PooledBuffer {
 public:
  explicit PooledBuffer(size_t n, bool zero)
      : buf_(BufferPool::Global().Acquire(n, zero)) {}
  ~PooledBuffer() { BufferPool::Global().Release(std::move(buf_)); }

  PooledBuffer(const PooledBuffer& other)
      : buf_(BufferPool::Global().Acquire(other.buf_.size(), false)) {
    std::copy(other.buf_.begin(), other.buf_.end(), buf_.begin());
  }
  PooledBuffer(PooledBuffer&& other) noexcept : buf_(std::move(other.buf_)) {}
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  PooledBuffer& operator=(PooledBuffer&&) = delete;

  float* data() { return buf_.data(); }
  const float* data() const { return buf_.data(); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<float> buf_;
};

}  // namespace desalign::tensor::kernels

#endif  // DESALIGN_TENSOR_KERNELS_BUFFER_POOL_H_
