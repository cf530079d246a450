// Bounded memory on the serve save/load path. 100 Reloads of a 20 000 x
// 128 table — int8 v3 and fp32 v2 — and 100 Saves must leave the buffer
// pool's cached bytes where the first call left them, and resident memory
// within one fp32 table of where the warm-up left it. LeakSanitizer cannot
// catch a leak here: buffers parked in the pool stay reachable, so the test
// measures instead. Kept out of the sanitizer subset, whose shadow memory
// would swamp VmRSS.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "nn/quant.h"
#include "serve/embedding_store.h"
#include "tensor/kernels/buffer_pool.h"

namespace desalign::serve {
namespace {

constexpr int64_t kRows = 20000;
constexpr int64_t kDim = 128;
constexpr int kCalls = 100;
constexpr int64_t kTableBytes = kRows * kDim * sizeof(float);  // 10.24 MB

int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<int64_t>(::sysconf(_SC_PAGESIZE));
}

int64_t CachedBytes() {
  return tensor::kernels::BufferPool::Global().GetStats().cached_bytes;
}

// Makes `call` kCalls times. The pool's cached bytes after the last call
// must equal their value after the first; VmRSS must stay within one table
// of its value after the second. glibc serves the first file-sized buffer
// with mmap and, once it is freed, raises its mmap threshold, so from the
// second call on that buffer comes from the heap and stays resident when
// freed: allocator warm-up, not growth.
void ExpectFlat(const std::function<common::Status()>& call,
                const std::string& what) {
  ASSERT_TRUE(call().ok()) << what;
  const int64_t cached = CachedBytes();
  ASSERT_TRUE(call().ok()) << what << " call 2";
  const int64_t resident = ResidentBytes();
  for (int i = 3; i <= kCalls; ++i) {
    ASSERT_TRUE(call().ok()) << what << " call " << i;
  }
  EXPECT_EQ(CachedBytes(), cached) << what;
  EXPECT_LT(ResidentBytes() - resident, kTableBytes)
      << what << ": VmRSS grew from " << resident << " bytes";
}

class ReloadMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("desalign_reload_memory_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    common::Rng rng(5);
    std::vector<float> rows(static_cast<size_t>(kRows * kDim));
    for (auto& v : rows) v = rng.UniformF(-1.0f, 1.0f);
    fp32_ = EmbeddingStore::FromRows(kRows, kDim, std::move(rows));
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
  EmbeddingStore fp32_;
};

TEST_F(ReloadMemoryTest, Int8ReloadsLeaveMemoryFlat) {
  const std::string path = Path("int8.dckpt");
  const auto int8 = std::move(fp32_.Quantize(nn::TensorDtype::kInt8)).value();
  ASSERT_TRUE(int8.Save(path).ok());
  EmbeddingStore store = std::move(EmbeddingStore::Load(path)).value();
  ExpectFlat([&] { return store.Reload(path); }, "int8 v3 Reload");
  EXPECT_EQ(store.Snapshot().dtype(), nn::TensorDtype::kInt8);
}

TEST_F(ReloadMemoryTest, Fp32ReloadsLeaveMemoryFlat) {
  const std::string path = Path("fp32.dckpt");
  ASSERT_TRUE(fp32_.Save(path).ok());
  EmbeddingStore store = std::move(EmbeddingStore::Load(path)).value();
  ExpectFlat([&] { return store.Reload(path); }, "fp32 v2 Reload");
  EXPECT_EQ(store.data(), fp32_.data());
}

TEST_F(ReloadMemoryTest, SavesLeaveMemoryFlat) {
  const std::string path = Path("saved.dckpt");
  ExpectFlat([&] { return fp32_.Save(path); }, "fp32 v2 Save");
}

}  // namespace
}  // namespace desalign::serve
