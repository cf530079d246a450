#include "nn/serialize.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "align/fusion_model.h"
#include "align/metrics.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "kg/synthetic.h"
#include "nn/checkpoint.h"
#include "tensor/init.h"

namespace desalign::nn {
namespace {

using tensor::Tensor;
using tensor::TensorPtr;

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("desalign_ckpt_" + std::to_string(::getpid()) + ".bin"))
                .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

// Length of the on-disk magic "DESALIGNPARAMS1"; the count field follows.
constexpr uint64_t kMagicLenForTest = 15;

std::vector<TensorPtr> MakeParams(uint64_t seed) {
  common::Rng rng(seed);
  std::vector<TensorPtr> params = {
      Tensor::Create(3, 4, true),
      Tensor::Create(1, 7, true),
      Tensor::Create(5, 5, true),
  };
  for (auto& p : params) tensor::FillNormal(*p, rng);
  return params;
}

TEST_F(SerializeTest, RoundTripRestoresExactValues) {
  auto original = MakeParams(1);
  ASSERT_TRUE(SaveParameters(original, path_).ok());
  auto restored = MakeParams(2);  // different values, same shapes
  ASSERT_TRUE(LoadParameters(restored, path_).ok());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i]->data(), original[i]->data());
  }
}

TEST_F(SerializeTest, SaveFaultSiteSurfacesAsStatus) {
  auto params = MakeParams(3);
  ASSERT_TRUE(
      common::FaultInjector::Global().Configure("params.write:fail").ok());
  EXPECT_FALSE(SaveParameters(params, path_).ok());
  common::FaultInjector::Global().Clear();
  ASSERT_TRUE(SaveParameters(params, path_).ok());
  auto restored = MakeParams(4);
  ASSERT_TRUE(LoadParameters(restored, path_).ok());
  EXPECT_EQ(restored[0]->data(), params[0]->data());
}

TEST_F(SerializeTest, CountMismatchFails) {
  auto params = MakeParams(3);
  ASSERT_TRUE(SaveParameters(params, path_).ok());
  params.pop_back();
  auto status = LoadParameters(params, path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, ShapeMismatchFailsWithoutMutation) {
  auto params = MakeParams(4);
  ASSERT_TRUE(SaveParameters(params, path_).ok());
  auto wrong = MakeParams(5);
  wrong[1] = Tensor::Create(2, 7, true);
  const auto before = wrong[0]->data();
  ASSERT_FALSE(LoadParameters(wrong, path_).ok());
  EXPECT_EQ(wrong[0]->data(), before);  // no partial load
}

TEST_F(SerializeTest, LastTensorShapeMismatchFailsWithoutMutation) {
  // Regression: an eager loader that copies tensors as it parses would
  // have already overwritten tensors 0 and 1 by the time it notices the
  // LAST tensor's shape is wrong. All shapes must be validated before any
  // data moves.
  auto params = MakeParams(14);
  ASSERT_TRUE(SaveParameters(params, path_).ok());
  auto wrong = MakeParams(15);
  wrong.back() = Tensor::Create(5, 6, true);  // file has 5x5
  const auto before0 = wrong[0]->data();
  const auto before1 = wrong[1]->data();
  ASSERT_FALSE(LoadParameters(wrong, path_).ok());
  EXPECT_EQ(wrong[0]->data(), before0);
  EXPECT_EQ(wrong[1]->data(), before1);
}

TEST_F(SerializeTest, LastTensorShapeMismatchFailsForV2Checkpoints) {
  // Same no-partial-write guarantee on the v2 (checksummed) load path.
  auto params = MakeParams(16);
  ASSERT_TRUE(SaveCheckpoint(
                  [&] {
                    TrainingCheckpoint ckpt;
                    ckpt.tensors = params;
                    return ckpt;
                  }(),
                  path_)
                  .ok());
  auto wrong = MakeParams(17);
  wrong.back() = Tensor::Create(5, 6, true);
  const auto before0 = wrong[0]->data();
  const auto before1 = wrong[1]->data();
  ASSERT_FALSE(LoadParameters(wrong, path_).ok());
  EXPECT_EQ(wrong[0]->data(), before0);
  EXPECT_EQ(wrong[1]->data(), before1);
}

TEST_F(SerializeTest, GarbageFileRejected) {
  std::ofstream(path_) << "definitely not a checkpoint";
  auto params = MakeParams(6);
  auto status = LoadParameters(params, path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kIoError);
}

TEST_F(SerializeTest, MissingFileRejected) {
  auto params = MakeParams(7);
  EXPECT_FALSE(LoadParameters(params, path_ + ".nope").ok());
}

TEST_F(SerializeTest, TruncatedFileRejectedWithoutMutation) {
  auto params = MakeParams(8);
  ASSERT_TRUE(SaveParameters(params, path_).ok());
  // Chop the file mid-way through the last tensor's payload.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 17);
  auto fresh = MakeParams(9);
  const auto before = fresh[2]->data();
  auto status = LoadParameters(fresh, path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kIoError);
  EXPECT_EQ(fresh[2]->data(), before);  // staged load left params intact
}

TEST_F(SerializeTest, LoadAllParametersRoundTrip) {
  auto params = MakeParams(10);
  ASSERT_TRUE(SaveParameters(params, path_).ok());
  auto loaded = LoadAllParameters(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(loaded.value()[i]->rows(), params[i]->rows());
    EXPECT_EQ(loaded.value()[i]->cols(), params[i]->cols());
    EXPECT_EQ(loaded.value()[i]->data(), params[i]->data());
  }
}

TEST_F(SerializeTest, LoadAllParametersRejectsTruncation) {
  auto params = MakeParams(11);
  ASSERT_TRUE(SaveParameters(params, path_).ok());
  const auto full = std::filesystem::file_size(path_);
  for (const auto keep : {full - 3, full / 2, kMagicLenForTest + 4}) {
    std::filesystem::resize_file(path_, keep);
    auto loaded = LoadAllParameters(path_);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
  }
}

TEST_F(SerializeTest, LoadAllParametersRejectsCorruptHeader) {
  auto params = MakeParams(12);
  ASSERT_TRUE(SaveParameters(params, path_).ok());
  // Overwrite the tensor count with an absurd value; the loader must
  // refuse rather than attempt a giant allocation.
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(kMagicLenForTest));
  const int64_t absurd = int64_t{1} << 60;
  f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  f.close();
  auto loaded = LoadAllParameters(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);

  // A zero dimension is implausible too: no Tensor can hold it.
  ASSERT_TRUE(SaveParameters(params, path_).ok());
  f.open(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(kMagicLenForTest + sizeof(int64_t)));
  const int64_t zero_rows = 0;
  f.write(reinterpret_cast<const char*>(&zero_rows), sizeof(zero_rows));
  f.close();
  loaded = LoadAllParameters(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
}

TEST_F(SerializeTest, LoadAllParametersRejectsGarbage) {
  std::ofstream(path_) << "garbage";
  EXPECT_FALSE(LoadAllParameters(path_).ok());
  EXPECT_FALSE(LoadAllParameters(path_ + ".nope").ok());
}

TEST_F(SerializeTest, FusionModelCheckpointReproducesDecode) {
  kg::SyntheticSpec spec;
  spec.num_entities = 100;
  spec.seed = 21;
  auto data = kg::GenerateSyntheticPair(spec);

  align::FusionModelConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 15;
  align::FusionAlignModel trained(cfg);
  trained.Fit(data);
  auto expected = trained.DecodeSimilarity(data);
  ASSERT_TRUE(trained.SaveCheckpoint(path_).ok());

  align::FusionAlignModel restored(cfg);
  // Loading before Warmup is a precondition failure.
  EXPECT_EQ(restored.LoadCheckpoint(path_).code(),
            common::StatusCode::kFailedPrecondition);
  restored.Warmup(data);
  ASSERT_TRUE(restored.LoadCheckpoint(path_).ok());
  auto actual = restored.DecodeSimilarity(data);
  ASSERT_EQ(actual->size(), expected->size());
  for (int64_t i = 0; i < actual->size(); ++i) {
    EXPECT_NEAR(actual->data()[i], expected->data()[i], 1e-6);
  }
}

TEST_F(SerializeTest, SaveBeforePrepareFails) {
  align::FusionModelConfig cfg;
  align::FusionAlignModel model(cfg);
  EXPECT_EQ(model.SaveCheckpoint(path_).code(),
            common::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace desalign::nn
