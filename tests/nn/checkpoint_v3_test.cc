// v3 (dtype-tagged) checkpoint format: round trips for every dtype, the
// read-compat contract (legacy consumers see dequantized fp32), and a
// table-driven corrupt-fixture suite. Because the whole body sits under
// the footer CRC, naive bit flips are caught by the envelope before the
// v3 parser runs; the corruption helper below re-seals the footer after
// each mutation so the per-record guards (unknown dtype id, scale-count
// mismatch, per-array CRC) are what actually reject the file.

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "nn/checkpoint.h"
#include "nn/quant.h"
#include "nn/serialize.h"
#include "tensor/init.h"

namespace desalign::nn {
namespace {

using tensor::Tensor;

// On-disk v3 offsets (see src/nn/checkpoint.cc): 14-byte magic, then the
// body: u32 version | i64 epoch | u32 flags | i64 tensor_count, so the
// first record's dtype byte sits at 14 + 4 + 8 + 4 + 8 = 38. The footer
// is u32 crc(body) | "DCKPTEND" (8 bytes) at the end of the file.
constexpr size_t kMagicLen = 14;
constexpr size_t kFirstDtypeOffset = 38;
constexpr size_t kFirstScaleCountOffset = kFirstDtypeOffset + 1 + 8 + 8;
constexpr size_t kFooterLen = 4 + 8;

class CheckpointV3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::Global().Clear();
    dir_ = std::filesystem::temp_directory_path() /
           ("desalign_ckpt_v3_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "ckpt.dckpt").string();
  }
  void TearDown() override {
    common::FaultInjector::Global().Clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
  std::string path_;
};

QuantTensor MakeQuant(TensorDtype dtype, int64_t rows, int64_t cols,
                      uint64_t seed) {
  common::Rng rng(seed);
  auto t = Tensor::Create(rows, cols, false);
  for (auto& v : t->data()) v = rng.UniformF(-1.0f, 1.0f);
  auto q = QuantizeTensor(*t, dtype);
  EXPECT_TRUE(q.ok());
  return std::move(q.value());
}

TrainingCheckpoint MakeV3Checkpoint(uint64_t seed) {
  TrainingCheckpoint ckpt;
  ckpt.epoch = 4;
  ckpt.quant_tensors.push_back(MakeQuant(TensorDtype::kInt8, 6, 5, seed));
  ckpt.quant_tensors.push_back(MakeQuant(TensorDtype::kBf16, 3, 7, seed + 1));
  ckpt.quant_tensors.push_back(
      MakeQuant(TensorDtype::kFloat32, 2, 9, seed + 2));
  return ckpt;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

// Applies `mutate` to the raw bytes, then recomputes the footer CRC so
// only the per-record integrity checks can reject the result.
std::string MutateAndReseal(std::string bytes,
                            const std::function<void(std::string&)>& mutate) {
  mutate(bytes);
  const size_t body_len = bytes.size() - kMagicLen - kFooterLen;
  const uint32_t crc = common::Crc32(bytes.data() + kMagicLen, body_len);
  std::memcpy(bytes.data() + bytes.size() - kFooterLen, &crc, sizeof(crc));
  return bytes;
}

TEST_F(CheckpointV3Test, RoundTripPreservesEveryDtypePayloadBitExactly) {
  const auto saved = MakeV3Checkpoint(3);
  ASSERT_TRUE(SaveCheckpoint(saved, path_).ok());
  EXPECT_TRUE(IsVersionedCheckpoint(path_));
  auto loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& got = loaded.value();
  EXPECT_EQ(got.epoch, saved.epoch);
  ASSERT_EQ(got.quant_tensors.size(), saved.quant_tensors.size());
  for (size_t i = 0; i < saved.quant_tensors.size(); ++i) {
    const auto& a = saved.quant_tensors[i];
    const auto& b = got.quant_tensors[i];
    EXPECT_EQ(a.dtype, b.dtype);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.f32, b.f32);
    EXPECT_EQ(a.codes, b.codes);
    EXPECT_EQ(a.scales, b.scales);
    EXPECT_EQ(a.bf16, b.bf16);
  }
  // The loader also fills the dequantized fp32 view, in record order.
  ASSERT_EQ(got.tensors.size(), saved.quant_tensors.size());
  for (size_t i = 0; i < got.tensors.size(); ++i) {
    const auto expect = DequantizeTensor(saved.quant_tensors[i]);
    EXPECT_EQ(got.tensors[i]->data(), expect->data()) << "tensor " << i;
  }
}

TEST_F(CheckpointV3Test, LegacyEntryPointsSeeDequantizedFp32) {
  const auto saved = MakeV3Checkpoint(4);
  ASSERT_TRUE(SaveCheckpoint(saved, path_).ok());
  auto all = LoadAllParameters(path_);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all.value().size(), saved.quant_tensors.size());
  for (size_t i = 0; i < all.value().size(); ++i) {
    EXPECT_EQ(all.value()[i]->data(),
              DequantizeTensor(saved.quant_tensors[i])->data());
  }
}

TEST_F(CheckpointV3Test, SaveRejectsMixedOrStatefulV3) {
  auto ckpt = MakeV3Checkpoint(5);
  // fp32 tensors alongside quant records is ambiguous: refuse.
  common::Rng rng(6);
  ckpt.tensors.push_back(Tensor::Create(2, 2, false));
  tensor::FillNormal(*ckpt.tensors.back(), rng);
  EXPECT_EQ(SaveCheckpoint(ckpt, path_).code(),
            common::StatusCode::kInvalidArgument);
  // Optimizer / rng / train state cannot ride on a v3 snapshot.
  ckpt = MakeV3Checkpoint(7);
  ckpt.has_train_state = true;
  EXPECT_EQ(SaveCheckpoint(ckpt, path_).code(),
            common::StatusCode::kInvalidArgument);
  // Payload sizes are validated before anything hits disk.
  ckpt = MakeV3Checkpoint(8);
  ckpt.quant_tensors[0].scales.pop_back();
  EXPECT_EQ(SaveCheckpoint(ckpt, path_).code(),
            common::StatusCode::kInvalidArgument);
  // A 0-row int8 record has consistent (empty) payloads, but no Tensor can
  // load it back: refuse it too.
  ckpt = MakeV3Checkpoint(9);
  ckpt.quant_tensors[0].rows = 0;
  ckpt.quant_tensors[0].codes.clear();
  ckpt.quant_tensors[0].scales.clear();
  EXPECT_EQ(SaveCheckpoint(ckpt, path_).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(path_));
}

struct CorruptCase {
  const char* name;
  std::function<void(std::string&)> mutate;
  const char* expect_substring;
};

TEST_F(CheckpointV3Test, TableDrivenCorruptionsRejectedWithNamedErrors) {
  ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(9), path_).ok());
  const std::string pristine = ReadFile(path_);
  ASSERT_GT(pristine.size(), kFirstScaleCountOffset + 8);

  const CorruptCase cases[] = {
      {"unknown dtype id",
       [](std::string& b) { b[kFirstDtypeOffset] = 7; },
       "unknown dtype id"},
      {"scale-array length mismatch",
       [](std::string& b) {
         int64_t count = 0;
         std::memcpy(&count, b.data() + kFirstScaleCountOffset,
                     sizeof(count));
         ++count;
         std::memcpy(b.data() + kFirstScaleCountOffset, &count,
                     sizeof(count));
       },
       "does not match rows"},
      {"flipped scale payload byte",
       // First scale float sits right after the scale count.
       [](std::string& b) { b[kFirstScaleCountOffset + 8] ^= 0x40; },
       "scale checksum mismatch"},
      {"flipped code payload byte",
       // Codes follow the 6 scales and their u32 CRC.
       [](std::string& b) {
         b[kFirstScaleCountOffset + 8 + 6 * 4 + 4 + 3] ^= 0x01;
       },
       "checksum mismatch"},
      {"nonzero flags",
       [](std::string& b) { b[kMagicLen + 4 + 8] = 1; },
       "nonzero flags"},
      {"truncated dtype tag",
       // Body cut immediately before the first record: the declared
       // tensor_count can no longer be satisfied.
       [](std::string& b) {
         b.erase(kFirstDtypeOffset, b.size() - kFirstDtypeOffset - kFooterLen);
       },
       "truncated tensor header"},
      {"trailing garbage",
       [](std::string& b) { b.insert(b.size() - kFooterLen, "XYZW"); },
       "trailing bytes"},
  };

  for (const auto& c : cases) {
    WriteFile(path_, MutateAndReseal(pristine, c.mutate));
    auto loaded = LoadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError) << c.name;
    EXPECT_NE(loaded.status().ToString().find(c.expect_substring),
              std::string::npos)
        << c.name << ": got " << loaded.status().ToString();
  }
  // The pristine bytes still load — the harness itself is sound.
  WriteFile(path_, pristine);
  EXPECT_TRUE(LoadCheckpoint(path_).ok());
}

TEST_F(CheckpointV3Test, RawBitFlipsCaughtByTheEnvelope) {
  ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(10), path_).ok());
  const std::string pristine = ReadFile(path_);
  for (size_t off = 0; off < pristine.size(); off += 11) {
    std::string corrupt = pristine;
    corrupt[off] ^= 1;
    WriteFile(path_, corrupt);
    auto loaded = LoadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok()) << "bit flip at offset " << off;
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
  }
}

TEST_F(CheckpointV3Test, TruncationRejectedAtEveryLength) {
  ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(11), path_).ok());
  const auto size = std::filesystem::file_size(path_);
  for (uint64_t keep = 0; keep < size; keep += 7) {
    ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(11), path_).ok());
    std::filesystem::resize_file(path_, keep);
    EXPECT_FALSE(LoadCheckpoint(path_).ok()) << "kept " << keep;
  }
}

TEST_F(CheckpointV3Test, InjectedTornWriteAndReadBitFlipRejected) {
  // The DESALIGN_FAULTS harness exercises the same ckpt.* sites v2 uses.
  ASSERT_TRUE(common::FaultInjector::Global()
                  .Configure("ckpt.write.data:short:100")
                  .ok());
  ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(12), path_).ok());
  common::FaultInjector::Global().Clear();
  EXPECT_FALSE(LoadCheckpoint(path_).ok());

  ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(13), path_).ok());
  ASSERT_TRUE(
      common::FaultInjector::Global().Configure("ckpt.read:bitflip:60").ok());
  EXPECT_FALSE(LoadCheckpoint(path_).ok());  // corrupted in flight
  EXPECT_TRUE(LoadCheckpoint(path_).ok());   // disk copy is fine
}

TEST_F(CheckpointV3Test, V2AndLegacyFilesStillRoundTrip) {
  // v2: a params+state checkpoint written through the untouched path.
  TrainingCheckpoint v2;
  v2.epoch = 2;
  common::Rng rng(14);
  v2.tensors.push_back(Tensor::Create(3, 4, true));
  tensor::FillNormal(*v2.tensors.back(), rng);
  ASSERT_TRUE(SaveCheckpoint(v2, path_).ok());
  auto loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().quant_tensors.empty());
  EXPECT_EQ(loaded.value().tensors[0]->data(), v2.tensors[0]->data());

  // v2 -> v3 migration: quantize the loaded fp32 tensor and re-save.
  TrainingCheckpoint v3;
  v3.epoch = loaded.value().epoch;
  auto q = QuantizeTensor(*loaded.value().tensors[0], TensorDtype::kInt8);
  ASSERT_TRUE(q.ok());
  v3.quant_tensors.push_back(std::move(q.value()));
  const std::string v3_path = (dir_ / "migrated.dckpt").string();
  ASSERT_TRUE(SaveCheckpoint(v3, v3_path).ok());
  auto migrated = LoadCheckpoint(v3_path);
  ASSERT_TRUE(migrated.ok());
  EXPECT_EQ(migrated.value().quant_tensors[0].codes,
            v3.quant_tensors[0].codes);

  // v1 legacy SaveParameters files load through the same entry point.
  const std::string v1_path = (dir_ / "legacy.dckpt").string();
  std::vector<tensor::TensorPtr> params;
  params.push_back(Tensor::Create(2, 6, true));
  tensor::FillNormal(*params.back(), rng);
  ASSERT_TRUE(SaveParameters(params, v1_path).ok());
  EXPECT_FALSE(IsVersionedCheckpoint(v1_path));
  auto legacy = LoadCheckpoint(v1_path);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy.value().tensors[0]->data(), params[0]->data());
}

}  // namespace
}  // namespace desalign::nn
