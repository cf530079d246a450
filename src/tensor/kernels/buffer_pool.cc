#include "tensor/kernels/buffer_pool.h"

#include <bit>
#include <utility>

#include "obs/metrics.h"

namespace desalign::tensor::kernels {

namespace {

// Registry handles are created once and cached; MetricsRegistry::ResetAll
// zeroes them in place without invalidating the references. The pool's own
// Stats struct stays authoritative (tests read it); the obs counters are the
// export surface (`run --metrics-out`, serve /metrics).
struct PoolObs {
  obs::Counter& hit;
  obs::Counter& miss;
  obs::Counter& release;
  obs::Counter& discard;
  obs::Gauge& cached_bytes;
};

PoolObs& Obs() {
  static PoolObs* obs = new PoolObs{
      obs::MetricsRegistry::Global().GetCounter("tensor.pool.hit"),
      obs::MetricsRegistry::Global().GetCounter("tensor.pool.miss"),
      obs::MetricsRegistry::Global().GetCounter("tensor.pool.release"),
      obs::MetricsRegistry::Global().GetCounter("tensor.pool.discard"),
      obs::MetricsRegistry::Global().GetGauge("tensor.pool.cached_bytes"),
  };
  return *obs;
}

size_t CapacityForBucket(int bucket) {
  return size_t{1} << (BufferPool::kMinCapacityLog2 + bucket);
}

}  // namespace

BufferPool& BufferPool::Global() {
  // Leaked deliberately: Tensors (and therefore Release calls) can outlive
  // any static destruction order we could arrange.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

int BufferPool::BucketForRequest(size_t n) {
  const int ceil_log2 =
      n <= 1 ? 0 : static_cast<int>(std::bit_width(n - 1));
  const int bucket = ceil_log2 <= kMinCapacityLog2
                         ? 0
                         : ceil_log2 - kMinCapacityLog2;
  return bucket < kNumBuckets ? bucket : -1;
}

int BufferPool::BucketForCapacity(size_t capacity) {
  if (!std::has_single_bit(capacity)) return -1;
  const int bucket = static_cast<int>(std::bit_width(capacity)) - 1 -
                     kMinCapacityLog2;
  return bucket >= 0 && bucket < kNumBuckets ? bucket : -1;
}

std::vector<float> BufferPool::Acquire(size_t n, bool zero) {
  if (n == 0) return {};
  const int bucket = BucketForRequest(n);
  std::vector<float> buf;
  bool pooled = false;
  bool hit = false;
  {
    common::MutexLock lock(mutex_);
    if (enabled_) {
      pooled = true;
      if (bucket >= 0 && !buckets_[bucket].empty()) {
        buf = std::move(buckets_[bucket].back());
        buckets_[bucket].pop_back();
        stats_.hits++;
        stats_.cached_buffers--;
        stats_.cached_bytes -=
            static_cast<int64_t>(buf.capacity() * sizeof(float));
        hit = true;
      } else {
        stats_.misses++;
      }
    }
  }
  if (pooled) {
    if (hit) {
      Obs().hit.Increment();
    } else {
      Obs().miss.Increment();
    }
  }
  if (!hit) {
    if (pooled && bucket >= 0) {
      // Round fresh allocations up to the bucket capacity so the buffer can
      // serve any request in its bucket once released.
      buf.reserve(CapacityForBucket(bucket));
    }
    buf.resize(n);  // fresh storage: value-initialized, so `zero` holds
    return buf;
  }
  if (zero) {
    buf.assign(n, 0.0f);
  } else {
    // resize() never writes elements below the old size; a shrink is free
    // and a grow zero-fills only the tail. Stale contents are exactly the
    // "unspecified" contract of zero=false.
    buf.resize(n);
  }
  return buf;
}

void BufferPool::Release(std::vector<float>&& buf) {
  if (buf.capacity() == 0) return;
  const int bucket = BucketForCapacity(buf.capacity());
  bool cached = false;
  bool pooled = false;
  {
    common::MutexLock lock(mutex_);
    if (enabled_) {
      pooled = true;
      if (bucket >= 0 && buckets_[bucket].size() < kMaxBuffersPerBucket) {
        stats_.releases++;
        stats_.cached_buffers++;
        stats_.cached_bytes +=
            static_cast<int64_t>(buf.capacity() * sizeof(float));
        buckets_[bucket].push_back(std::move(buf));
        cached = true;
      } else {
        stats_.discards++;
      }
    }
  }
  if (pooled) {
    if (cached) {
      Obs().release.Increment();
    } else {
      Obs().discard.Increment();
    }
    Obs().cached_bytes.Set(static_cast<double>([this] {
      common::MutexLock lock(mutex_);
      return stats_.cached_bytes;
    }()));
  }
  if (!cached) buf = std::vector<float>();  // free outside the lock
}

bool BufferPool::enabled() const {
  common::MutexLock lock(mutex_);
  return enabled_;
}

void BufferPool::set_enabled(bool enabled) {
  common::MutexLock lock(mutex_);
  enabled_ = enabled;
}

void BufferPool::Clear() {
  common::MutexLock lock(mutex_);
  for (auto& bucket : buckets_) bucket.clear();
  stats_.cached_buffers = 0;
  stats_.cached_bytes = 0;
}

void BufferPool::ResetStats() {
  common::MutexLock lock(mutex_);
  stats_.hits = 0;
  stats_.misses = 0;
  stats_.releases = 0;
  stats_.discards = 0;
}

BufferPool::Stats BufferPool::GetStats() const {
  common::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace desalign::tensor::kernels
