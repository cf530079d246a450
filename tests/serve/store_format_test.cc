// EmbeddingStore's checkpoint path against nn's: Save writes the bytes
// nn::SaveCheckpoint writes for the equivalent TrainingCheckpoint, and Load
// rejects every corrupt input nn::LoadCheckpoint rejects, with the same
// Status. Both go through nn::ParseCheckpoint; these tests keep it that
// way. The corruptions mirror the v2 and v3 checkpoint suites: a bit flip
// in every byte, truncation at every length, garbage, resealed per-record
// damage, and the injected read bit flip.

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "nn/checkpoint.h"
#include "nn/quant.h"
#include "serve/embedding_store.h"
#include "tensor/init.h"
#include "tensor/tensor.h"

namespace desalign::serve {
namespace {

using nn::TensorDtype;
using tensor::Tensor;

// v3 offsets (src/nn/checkpoint.cc): a 14-byte magic, then u32 version |
// i64 epoch | u32 flags | i64 tensor_count, so record 0's dtype byte sits
// at 38; the footer is u32 crc(body) | "DCKPTEND".
constexpr size_t kMagicLen = 14;
constexpr size_t kFirstDtypeOffset = 38;
constexpr size_t kFirstScaleCountOffset = kFirstDtypeOffset + 1 + 8 + 8;
constexpr size_t kFooterLen = 4 + 8;

class StoreFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::Global().Clear();
    dir_ = std::filesystem::temp_directory_path() /
           ("desalign_store_format_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "ckpt.dckpt").string();
  }
  void TearDown() override {
    common::FaultInjector::Global().Clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Both loaders must refuse the file at `path_` with the same Status.
  void ExpectSameRejection(const std::string& what) const {
    const auto want = nn::LoadCheckpoint(path_);
    const auto got = EmbeddingStore::Load(path_);
    ASSERT_FALSE(want.ok()) << what;
    ASSERT_FALSE(got.ok()) << what;
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
  }

  // Flips one bit of every byte, then truncates at every length.
  void ExpectEveryFlipAndCutRejected(const std::string& pristine) {
    for (size_t off = 0; off < pristine.size(); ++off) {
      std::string corrupt = pristine;
      corrupt[off] ^= 1;
      WriteFile(path_, corrupt);
      ExpectSameRejection("bit flip at offset " + std::to_string(off));
    }
    for (size_t keep = 0; keep < pristine.size(); ++keep) {
      WriteFile(path_, pristine.substr(0, keep));
      ExpectSameRejection("truncated to " + std::to_string(keep));
    }
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary) << bytes;
  }

  std::filesystem::path dir_;
  std::string path_;
};

std::vector<float> RandomRows(int64_t rows, int64_t cols, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(rows * cols));
  for (auto& v : data) v = rng.UniformF(-1.0f, 1.0f);
  return data;
}

nn::QuantTensor MakeQuant(TensorDtype dtype, int64_t rows, int64_t cols,
                          uint64_t seed) {
  const auto t = Tensor::FromData(rows, cols, RandomRows(rows, cols, seed));
  return std::move(nn::QuantizeTensor(*t, dtype)).value();
}

// The v2 fixture of the checkpoint suite: params, AdamW moments, RNG
// engine and loop state.
nn::TrainingCheckpoint MakeFullV2Checkpoint(uint64_t seed) {
  nn::TrainingCheckpoint ckpt;
  ckpt.epoch = 17;
  common::Rng rng(seed);
  const int64_t shapes[][2] = {{3, 4}, {1, 7}, {5, 5}};
  for (const auto& shape : shapes) {
    ckpt.tensors.push_back(Tensor::Create(shape[0], shape[1], true));
    tensor::FillNormal(*ckpt.tensors.back(), rng);
    const size_t n = ckpt.tensors.back()->data().size();
    ckpt.opt_m.push_back(RandomRows(1, static_cast<int64_t>(n), seed + 1));
    ckpt.opt_v.push_back(RandomRows(1, static_cast<int64_t>(n), seed + 2));
  }
  ckpt.has_optimizer = true;
  ckpt.opt_step = 123;
  ckpt.has_rng = true;
  ckpt.rng_state = common::Rng(seed + 3).SerializeState();
  ckpt.has_train_state = true;
  ckpt.best_loss = 0.625f;
  ckpt.stall = 2;
  ckpt.lr_scale = 0.25f;
  return ckpt;
}

// The v3 fixture: one record of each dtype, int8 first.
nn::TrainingCheckpoint MakeV3Checkpoint(uint64_t seed) {
  nn::TrainingCheckpoint ckpt;
  ckpt.epoch = 4;
  ckpt.quant_tensors.push_back(MakeQuant(TensorDtype::kInt8, 6, 5, seed));
  ckpt.quant_tensors.push_back(MakeQuant(TensorDtype::kBf16, 3, 7, seed + 1));
  ckpt.quant_tensors.push_back(
      MakeQuant(TensorDtype::kFloat32, 2, 9, seed + 2));
  return ckpt;
}

TEST_F(StoreFormatTest, Fp32SaveMatchesSaveCheckpointByteForByte) {
  const auto store =
      EmbeddingStore::FromRows(300, 24, RandomRows(300, 24, 1));
  ASSERT_TRUE(store.Save(Path("store.dckpt")).ok());

  nn::TrainingCheckpoint ckpt;
  ckpt.tensors.push_back(Tensor::FromData(300, 24, store.data()));
  ASSERT_TRUE(nn::SaveCheckpoint(ckpt, Path("nn.dckpt")).ok());

  const std::string bytes = ReadFile(Path("store.dckpt"));
  ASSERT_EQ(bytes.compare(0, kMagicLen, "DESALIGNCKPT2\n"), 0);
  EXPECT_EQ(bytes, ReadFile(Path("nn.dckpt")));
}

TEST_F(StoreFormatTest, Int8SaveMatchesSaveCheckpointByteForByte) {
  const auto fp32 = EmbeddingStore::FromRows(300, 24, RandomRows(300, 24, 2));
  const auto store =
      std::move(fp32.Quantize(TensorDtype::kInt8)).value();
  ASSERT_TRUE(store.Save(Path("store.dckpt")).ok());

  const auto t = Tensor::FromData(300, 24, fp32.data());
  nn::TrainingCheckpoint ckpt;
  ckpt.quant_tensors.push_back(
      std::move(nn::QuantizeTensor(*t, TensorDtype::kInt8)).value());
  ASSERT_TRUE(nn::SaveCheckpoint(ckpt, Path("nn.dckpt")).ok());

  const std::string bytes = ReadFile(Path("store.dckpt"));
  ASSERT_EQ(bytes.compare(0, kMagicLen, "DESALIGNCKPT3\n"), 0);
  EXPECT_EQ(bytes, ReadFile(Path("nn.dckpt")));
}

TEST_F(StoreFormatTest, SavingAnEmptyStoreIsRejected) {
  EXPECT_EQ(EmbeddingStore().Save(path_).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(StoreFormatTest, LoadRejectsEveryCorruptV2FileLikeLoadCheckpoint) {
  ASSERT_TRUE(nn::SaveCheckpoint(MakeFullV2Checkpoint(8), path_).ok());
  const std::string pristine = ReadFile(path_);
  ASSERT_TRUE(EmbeddingStore::Load(path_).ok());
  ExpectEveryFlipAndCutRejected(pristine);
}

TEST_F(StoreFormatTest, LoadRejectsEveryCorruptV3FileLikeLoadCheckpoint) {
  ASSERT_TRUE(nn::SaveCheckpoint(MakeV3Checkpoint(9), path_).ok());
  const std::string pristine = ReadFile(path_);
  ASSERT_TRUE(EmbeddingStore::Load(path_).ok());
  ExpectEveryFlipAndCutRejected(pristine);
}

TEST_F(StoreFormatTest, LoadRejectsResealedRecordDamageLikeLoadCheckpoint) {
  // The footer is recomputed after each mutation, so the per-record guards
  // are what reject the file, as in the v3 checkpoint suite.
  ASSERT_TRUE(nn::SaveCheckpoint(MakeV3Checkpoint(10), path_).ok());
  const std::string pristine = ReadFile(path_);
  const std::pair<const char*, std::function<void(std::string&)>> cases[] =
      {
          {"unknown dtype id", [](std::string& b) { b[kFirstDtypeOffset] = 7; }},
          {"scale-array length mismatch",
           [](std::string& b) { b[kFirstScaleCountOffset] += 1; }},
          {"flipped scale payload byte",
           [](std::string& b) { b[kFirstScaleCountOffset + 8] ^= 0x40; }},
          {"flipped code payload byte",
           [](std::string& b) {
             b[kFirstScaleCountOffset + 8 + 6 * 4 + 4 + 3] ^= 0x01;
           }},
          {"nonzero flags", [](std::string& b) { b[kMagicLen + 4 + 8] = 1; }},
          {"truncated dtype tag",
           [](std::string& b) {
             b.erase(kFirstDtypeOffset,
                     b.size() - kFirstDtypeOffset - kFooterLen);
           }},
          {"trailing garbage",
           [](std::string& b) { b.insert(b.size() - kFooterLen, "XYZW"); }},
      };
  for (const auto& [name, mutate] : cases) {
    std::string bytes = pristine;
    mutate(bytes);
    const size_t body_len = bytes.size() - kMagicLen - kFooterLen;
    const uint32_t crc = common::Crc32(bytes.data() + kMagicLen, body_len);
    std::memcpy(bytes.data() + bytes.size() - kFooterLen, &crc, sizeof(crc));
    WriteFile(path_, bytes);
    ExpectSameRejection(name);
  }
}

TEST_F(StoreFormatTest, LoadRejectsGarbageAndInjectedReadFlips) {
  WriteFile(path_, "not a checkpoint at all");
  ExpectSameRejection("garbage");
  WriteFile(path_, "DESALIGNCKPT3\n" + std::string(40, '\0') + "DCKPTEND");
  ExpectSameRejection("v3 magic around zeros");

  for (const auto& ckpt : {MakeFullV2Checkpoint(11), MakeV3Checkpoint(12)}) {
    ASSERT_TRUE(nn::SaveCheckpoint(ckpt, path_).ok());
    // Each loader reads once; re-arm the fault for the second.
    ASSERT_TRUE(
        common::FaultInjector::Global().Configure("ckpt.read:bitflip:60").ok());
    const auto want = nn::LoadCheckpoint(path_);
    ASSERT_TRUE(
        common::FaultInjector::Global().Configure("ckpt.read:bitflip:60").ok());
    const auto got = EmbeddingStore::Load(path_);
    common::FaultInjector::Global().Clear();
    ASSERT_FALSE(want.ok());
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    EXPECT_TRUE(EmbeddingStore::Load(path_).ok());  // disk copy is fine
  }
}

}  // namespace
}  // namespace desalign::serve
