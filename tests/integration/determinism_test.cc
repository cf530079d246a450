// Determinism suite: a full small-config DESAlign training run must be
// bit-exact across repeated runs with the same seed and across thread
// counts. Reproducible comparisons are the foundation the benchmarking
// harness (and the paper's tables) stand on — any nondeterminism in the
// tensor kernels, the thread-pool partitioning, or the training loop shows
// up here as a float-for-float mismatch.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/desalign.h"
#include "kg/synthetic.h"
#include "tensor/kernels/buffer_pool.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/tensor.h"

namespace desalign {
namespace {

kg::AlignedKgPair TinyData(uint64_t seed = 91) {
  kg::SyntheticSpec spec;
  spec.num_entities = 70;
  spec.seed = seed;
  spec.seed_ratio = 0.3;
  return kg::GenerateSyntheticPair(spec);
}

core::DesalignConfig TinyConfig(uint64_t seed = 5) {
  auto cfg = core::DesalignConfig::Default(seed);
  cfg.base.dim = 8;
  cfg.base.epochs = 4;
  cfg.propagation_iterations = 2;
  return cfg;
}

struct RunArtifacts {
  std::vector<float> fused;
  std::vector<float> similarity;
};

// One complete train → decode journey; returns every float the run
// produced so callers can compare runs bit-for-bit.
RunArtifacts TrainAndDecode(const kg::AlignedKgPair& data, uint64_t seed) {
  core::DesalignModel model(TinyConfig(seed));
  model.Fit(data);
  auto fused = model.FusedEmbeddings();
  auto sim = model.DecodeSimilarity(data);
  RunArtifacts out;
  out.fused.assign(fused->data().begin(), fused->data().end());
  out.similarity.assign(sim->data().begin(), sim->data().end());
  return out;
}

// memcmp, not EXPECT_FLOAT_EQ: the claim is bit-exactness, and a byte
// compare also distinguishes -0.0f from 0.0f and catches NaN payloads.
void ExpectBitExact(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_FALSE(a.empty()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": runs diverged";
}

TEST(DeterminismTest, SameSeedSameRunBitExact) {
  auto data = TinyData();
  const RunArtifacts first = TrainAndDecode(data, 5);
  const RunArtifacts second = TrainAndDecode(data, 5);
  ExpectBitExact(first.fused, second.fused, "fused embeddings");
  ExpectBitExact(first.similarity, second.similarity, "decoded similarity");
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  auto data = TinyData();
  const RunArtifacts a = TrainAndDecode(data, 5);
  const RunArtifacts b = TrainAndDecode(data, 6);
  ASSERT_EQ(a.fused.size(), b.fused.size());
  EXPECT_NE(std::memcmp(a.fused.data(), b.fused.data(),
                        a.fused.size() * sizeof(float)),
            0)
      << "different init seeds produced identical embeddings";
}

TEST(DeterminismTest, ThreadCountInvariant) {
  auto data = TinyData();
  common::ThreadPool::SetGlobalThreadCount(1);
  const RunArtifacts serial = TrainAndDecode(data, 5);
  common::ThreadPool::SetGlobalThreadCount(4);
  const RunArtifacts parallel = TrainAndDecode(data, 5);
  common::ThreadPool::SetGlobalThreadCount(0);  // restore automatic
  ExpectBitExact(serial.fused, parallel.fused, "fused embeddings");
  ExpectBitExact(serial.similarity, parallel.similarity,
                 "decoded similarity");
}

// The BufferPool hands out recycled (possibly stale) storage; results must
// not depend on it. Train with the pool disabled (fresh zeroed allocations,
// the pre-pool behaviour), then twice with it enabled — the second enabled
// run recycles dirty buffers from the first, which is exactly the state
// where a kernel reading uninitialized output storage would diverge.
TEST(DeterminismTest, BufferPoolInvariant) {
  auto data = TinyData();
  auto& pool = tensor::kernels::BufferPool::Global();
  pool.set_enabled(false);
  const RunArtifacts off = TrainAndDecode(data, 5);
  pool.set_enabled(true);
  pool.Clear();
  const RunArtifacts cold = TrainAndDecode(data, 5);
  const RunArtifacts warm = TrainAndDecode(data, 5);
  ExpectBitExact(off.fused, cold.fused, "fused embeddings (pool off vs on)");
  ExpectBitExact(off.similarity, cold.similarity,
                 "decoded similarity (pool off vs on)");
  ExpectBitExact(off.fused, warm.fused,
                 "fused embeddings (pool off vs warm/dirty pool)");
  ExpectBitExact(off.similarity, warm.similarity,
                 "decoded similarity (pool off vs warm/dirty pool)");
}

// ISA selection is a speed knob, never a numerics knob: forcing the scalar
// bodies must reproduce the auto-dispatched (possibly AVX2) run exactly.
TEST(DeterminismTest, IsaInvariant) {
  auto data = TinyData();
  const RunArtifacts auto_isa = TrainAndDecode(data, 5);
  tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kScalar);
  const RunArtifacts scalar = TrainAndDecode(data, 5);
  tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kScalar,
                                  /*has_override=*/false);
  ExpectBitExact(auto_isa.fused, scalar.fused, "fused embeddings");
  ExpectBitExact(auto_isa.similarity, scalar.similarity,
                 "decoded similarity");
}

// Acceptance check for the pool: once every live shape has been seen, the
// epoch loop should run close to allocation-free. The first run warms the
// buckets; the second must be served almost entirely from them.
TEST(DeterminismTest, BufferPoolSteadyStateHitRate) {
  auto data = TinyData();
  auto& pool = tensor::kernels::BufferPool::Global();
  pool.set_enabled(true);
  TrainAndDecode(data, 5);  // warm the buckets
  pool.ResetStats();
  TrainAndDecode(data, 5);
  const auto stats = pool.GetStats();
  ASSERT_GT(stats.hits + stats.misses, 0);
  // Not exactly 1.0: a bucket that overflows kMaxBuffersPerBucket at the
  // peak of the graph discards, and those allocations miss again next run.
  EXPECT_GE(stats.HitRate(), 0.95)
      << "steady-state training should recycle nearly every buffer, got "
      << stats.hits << " hits / " << stats.misses << " misses";
}

TEST(DeterminismTest, DatasetGenerationIsSeedDeterministic) {
  auto a = TinyData(123);
  auto b = TinyData(123);
  ASSERT_EQ(a.train_pairs.size(), b.train_pairs.size());
  for (size_t i = 0; i < a.train_pairs.size(); ++i) {
    EXPECT_EQ(a.train_pairs[i].source, b.train_pairs[i].source);
    EXPECT_EQ(a.train_pairs[i].target, b.train_pairs[i].target);
  }
  ExpectBitExact(
      std::vector<float>(a.source.visual_features.features->data().begin(),
                         a.source.visual_features.features->data().end()),
      std::vector<float>(b.source.visual_features.features->data().begin(),
                         b.source.visual_features.features->data().end()),
      "visual features");
}

}  // namespace
}  // namespace desalign
