// Property and contract tests for the quantized embedding path: the
// QuantizeRow round-trip error bound, the bf16 codec, the int8 dot kernel
// (scalar vs AVX2 bit-equality), query sanitization, and the
// EmbeddingStore::Quantize / Save / Load / serve pipeline.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/checkpoint.h"
#include "nn/quant.h"
#include "obs/metrics.h"
#include "serve/embedding_store.h"
#include "serve/row_source.h"
#include "serve/scoring.h"
#include "serve/topk.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/tensor.h"

namespace desalign::serve {
namespace {

using nn::TensorDtype;
using nn::quant::Bf16DecodeRow;
using nn::quant::Bf16EncodeRow;
using nn::quant::Bf16FromFloat;
using nn::quant::DequantizeRow;
using nn::quant::FloatFromBf16;
using nn::quant::QuantizeRow;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::vector<float> RandomRow(int64_t d, uint64_t seed, float amp = 1.0f) {
  common::Rng rng(seed);
  std::vector<float> row(static_cast<size_t>(d));
  for (auto& v : row) v = amp * rng.UniformF(-1.0f, 1.0f);
  return row;
}

// |row[j] - scale * code[j]| <= scale / 2, with a one-ulp-ish slack for
// the float divide/multiply in the round trip.
void ExpectRoundTripWithinHalfScale(const std::vector<float>& row) {
  const int64_t d = static_cast<int64_t>(row.size());
  std::vector<int8_t> codes(row.size());
  float scale = -1.0f;
  ASSERT_TRUE(QuantizeRow(row.data(), d, codes.data(), &scale).ok());
  ASSERT_GE(scale, 0.0f);
  std::vector<float> back(row.size());
  DequantizeRow(codes.data(), d, scale, back.data());
  const float slack = scale * 1e-5f;
  for (int64_t j = 0; j < d; ++j) {
    EXPECT_LE(std::fabs(row[static_cast<size_t>(j)] -
                        back[static_cast<size_t>(j)]),
              scale * 0.5f + slack)
        << "col " << j << " of " << d;
    EXPECT_GE(codes[static_cast<size_t>(j)], -127);
    EXPECT_LE(codes[static_cast<size_t>(j)], 127);
  }
}

TEST(QuantizeRowTest, RandomRowsRoundTripWithinHalfScale) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const int64_t d = 1 + static_cast<int64_t>(seed % 130);
    ExpectRoundTripWithinHalfScale(RandomRow(d, seed));
  }
}

TEST(QuantizeRowTest, LargeMagnitudeRowsRoundTrip) {
  ExpectRoundTripWithinHalfScale(RandomRow(64, 7, 1e30f));
  ExpectRoundTripWithinHalfScale(RandomRow(64, 8, 1e-30f));
  // Mixed huge positive / huge negative.
  std::vector<float> row = {3e37f, -3e37f, 1.0f, 0.0f, -2e36f};
  ExpectRoundTripWithinHalfScale(row);
}

TEST(QuantizeRowTest, AllZeroRowGetsScaleZeroAndExactZeros) {
  std::vector<float> row(32, 0.0f);
  std::vector<int8_t> codes(row.size(), 99);
  float scale = -1.0f;
  ASSERT_TRUE(QuantizeRow(row.data(), 32, codes.data(), &scale).ok());
  EXPECT_EQ(scale, 0.0f);
  for (const int8_t c : codes) EXPECT_EQ(c, 0);
  std::vector<float> back(row.size(), 1.0f);
  DequantizeRow(codes.data(), 32, scale, back.data());
  for (const float v : back) EXPECT_EQ(v, 0.0f);
}

TEST(QuantizeRowTest, AllEqualRowSaturatesToFullScale) {
  std::vector<float> row(16, 0.75f);
  std::vector<int8_t> codes(row.size());
  float scale = 0.0f;
  ASSERT_TRUE(QuantizeRow(row.data(), 16, codes.data(), &scale).ok());
  // maxabs / 127 scale means every element lands exactly on code 127.
  EXPECT_FLOAT_EQ(scale, 0.75f / 127.0f);
  for (const int8_t c : codes) EXPECT_EQ(c, 127);
  std::vector<float> back(16);
  DequantizeRow(codes.data(), 16, scale, back.data());
  for (const float v : back) EXPECT_NEAR(v, 0.75f, 0.75f * 1e-6f);
}

TEST(QuantizeRowTest, SingleElementRow) {
  const float v = -0.3125f;
  int8_t code = 0;
  float scale = 0.0f;
  ASSERT_TRUE(QuantizeRow(&v, 1, &code, &scale).ok());
  EXPECT_EQ(code, -127);
  float back = 0.0f;
  DequantizeRow(&code, 1, scale, &back);
  EXPECT_NEAR(back, v, std::fabs(v) * 1e-6f);
}

TEST(QuantizeRowTest, NonFiniteRowsRejected) {
  // Table rows with NaN/inf are training bugs: REJECT, never saturate.
  for (const float poison : {kNaN, kInf, -kInf}) {
    std::vector<float> row = RandomRow(8, 3);
    row[5] = poison;
    std::vector<int8_t> codes(row.size());
    float scale = 0.0f;
    const auto status = QuantizeRow(row.data(), 8, codes.data(), &scale);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  }
}

TEST(Bf16Test, EncodeDecodeRoundTripIsExactForBf16Values) {
  // Values already representable in bf16 survive the round trip exactly.
  for (const float v :
       {0.0f, -0.0f, 1.0f, -2.5f, 0.15625f, 1024.0f,
        std::ldexp(1.0f, 100), -std::ldexp(1.75f, -100)}) {
    EXPECT_EQ(FloatFromBf16(Bf16FromFloat(v)), v) << v;
  }
}

TEST(Bf16Test, RoundsToNearestEven) {
  // bf16 spacing at 1.0 is 2^-7; 1.0 + 2^-8 sits exactly halfway between
  // 1.0 (even mantissa) and 1.0078125 (odd), so RNE picks 1.0.
  EXPECT_EQ(FloatFromBf16(Bf16FromFloat(1.00390625f)), 1.0f);
  // Just above halfway rounds up to the next bf16 value.
  EXPECT_EQ(FloatFromBf16(Bf16FromFloat(1.005f)), 1.0078125f);
  // The next halfway point ties to the even neighbour above.
  EXPECT_EQ(FloatFromBf16(Bf16FromFloat(1.01171875f)), 1.015625f);
}

TEST(Bf16Test, NaNStaysNaNAndRowCodecMatchesScalar) {
  EXPECT_TRUE(std::isnan(FloatFromBf16(Bf16FromFloat(kNaN))));
  const auto row = RandomRow(37, 9);
  std::vector<uint16_t> enc(row.size());
  Bf16EncodeRow(row.data(), 37, enc.data());
  std::vector<float> dec(row.size());
  Bf16DecodeRow(enc.data(), 37, dec.data());
  for (size_t j = 0; j < row.size(); ++j) {
    EXPECT_EQ(enc[j], Bf16FromFloat(row[j]));
    EXPECT_EQ(dec[j], FloatFromBf16(enc[j]));
    EXPECT_NEAR(dec[j], row[j], std::fabs(row[j]) * 0.0079f);  // 2^-7
  }
}

TEST(DtypeTest, NamesAndParsingRoundTrip) {
  EXPECT_STREQ(nn::DtypeName(TensorDtype::kFloat32), "fp32");
  EXPECT_STREQ(nn::DtypeName(TensorDtype::kInt8), "int8");
  EXPECT_STREQ(nn::DtypeName(TensorDtype::kBf16), "bf16");
  EXPECT_EQ(nn::ParseDtype("fp32").value(), TensorDtype::kFloat32);
  EXPECT_EQ(nn::ParseDtype("float32").value(), TensorDtype::kFloat32);
  EXPECT_EQ(nn::ParseDtype("int8").value(), TensorDtype::kInt8);
  EXPECT_EQ(nn::ParseDtype("bf16").value(), TensorDtype::kBf16);
  EXPECT_EQ(nn::ParseDtype("bfloat16").value(), TensorDtype::kBf16);
  EXPECT_FALSE(nn::ParseDtype("fp16").ok());
}

class IsaOverrideGuard {
 public:
  ~IsaOverrideGuard() {
    tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kScalar,
                                    /*has_override=*/false);
  }
};

TEST(DotI8Test, ScalarAndAvx2AreBitIdentical) {
  IsaOverrideGuard guard;
  common::Rng rng(42);
  // Dimensions straddling the 16-lane AVX2 width, including tails.
  for (const int64_t d : {1, 7, 15, 16, 17, 31, 32, 33, 64, 100, 257}) {
    std::vector<int8_t> a(static_cast<size_t>(d)), b(a.size());
    for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(255) - 127);
    for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(255) - 127);
    tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kScalar);
    const int32_t scalar = scoring::DotI8(a.data(), b.data(), d);
    tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kAvx2);
    const int32_t vec = scoring::DotI8(a.data(), b.data(), d);
    EXPECT_EQ(scalar, vec) << "d=" << d;
    // Saturating extremes: |sum| = d * 127^2 must not wrap in int32.
    std::vector<int8_t> hi(static_cast<size_t>(d), 127);
    tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kScalar);
    const int32_t s2 = scoring::DotI8(hi.data(), hi.data(), d);
    tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kAvx2);
    EXPECT_EQ(s2, scoring::DotI8(hi.data(), hi.data(), d));
    EXPECT_EQ(s2, static_cast<int32_t>(d) * 127 * 127);
  }
}

TEST(QuantizeQueryTest, SanitizesNonFiniteCoordinatesToZero) {
  // Queries are caller input: poisoned coordinates degrade to 0 instead of
  // poisoning the scan (unlike table rows, which QuantizeRow rejects).
  std::vector<float> q = {0.5f, kNaN, -0.25f, kInf, 0.0f, -kInf, 1.0f, 0.1f};
  const auto quantized =
      scoring::QuantizeQuery(q.data(), static_cast<int64_t>(q.size()));
  ASSERT_EQ(quantized.codes.size(), q.size());
  EXPECT_EQ(quantized.codes[1], 0);
  EXPECT_EQ(quantized.codes[3], 0);
  EXPECT_EQ(quantized.codes[5], 0);
  // Finite coords still quantize against the finite maxabs (1.0 here).
  EXPECT_EQ(quantized.codes[6], 127);
  EXPECT_FLOAT_EQ(quantized.scale, 1.0f / 127.0f);

  // An all-non-finite query degrades to the all-zero query.
  std::vector<float> bad = {kNaN, kInf, -kInf};
  const auto z = scoring::QuantizeQuery(bad.data(), 3);
  EXPECT_EQ(z.scale, 0.0f);
  for (const int8_t c : z.codes) EXPECT_EQ(c, 0);
}

TEST(ResolveRerankCandidatesTest, PolicyMatrix) {
  // auto: min(n, max(4k, 64))
  EXPECT_EQ(scoring::ResolveRerankCandidates(0, 10, 100000), 64);
  EXPECT_EQ(scoring::ResolveRerankCandidates(0, 50, 100000), 200);
  EXPECT_EQ(scoring::ResolveRerankCandidates(0, 10, 40), 40);
  // explicit: clamped to [k, n]
  EXPECT_EQ(scoring::ResolveRerankCandidates(500, 10, 100000), 500);
  EXPECT_EQ(scoring::ResolveRerankCandidates(5, 10, 100000), 10);
  EXPECT_EQ(scoring::ResolveRerankCandidates(500, 10, 200), 200);
  // exact: all rows
  EXPECT_EQ(scoring::ResolveRerankCandidates(-1, 10, 100000), 100000);
}

class QuantStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("desalign_quant_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& tag) {
    return (dir_ / (tag + ".dckpt")).string();
  }
  std::filesystem::path dir_;
};

EmbeddingStore MakeStore(int64_t rows, int64_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(rows * dim));
  for (auto& v : data) v = rng.UniformF(-1.0f, 1.0f);
  return EmbeddingStore::FromRows(rows, dim, std::move(data));
}

TEST_F(QuantStoreTest, QuantizeSaveLoadRoundTripsBitExactly) {
  const auto store = MakeStore(200, 24, 5);
  for (const TensorDtype dtype : {TensorDtype::kInt8, TensorDtype::kBf16}) {
    auto quantized = store.Quantize(dtype);
    ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
    const EmbeddingSnapshot before = quantized.value().Snapshot();
    ASSERT_EQ(before.dtype(), dtype);

    const std::string path = Path(nn::DtypeName(dtype));
    ASSERT_TRUE(quantized.value().Save(path).ok());
    auto loaded = EmbeddingStore::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const EmbeddingSnapshot after = loaded.value().Snapshot();
    ASSERT_EQ(after.dtype(), dtype);
    ASSERT_EQ(after.size(), 200);
    ASSERT_EQ(after.dim(), 24);
    // Codes, scales and bf16 patterns survive the disk round trip
    // bit for bit — the loader must not renormalize quantized records.
    for (int64_t i = 0; i < 200; ++i) {
      std::vector<float> sa(24), sb(24);
      const float* ra = before.RowAsFloat(i, sa.data());
      const float* rb = after.RowAsFloat(i, sb.data());
      for (int64_t j = 0; j < 24; ++j) {
        ASSERT_EQ(ra[j], rb[j]) << "row " << i << " col " << j;
      }
    }
  }
}

TEST_F(QuantStoreTest, QuantizeRejectsRequantization) {
  const auto store = MakeStore(16, 8, 6);
  auto int8_store = store.Quantize(TensorDtype::kInt8);
  ASSERT_TRUE(int8_store.ok());
  // int8 -> bf16 would stack rounding error invisibly: refuse.
  auto again = int8_store.value().Quantize(TensorDtype::kBf16);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), common::StatusCode::kInvalidArgument);
  // fp32 -> fp32 is a cheap shared-table copy.
  auto same = store.Quantize(TensorDtype::kFloat32);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.value().Snapshot().dtype(), TensorDtype::kFloat32);
}

TEST_F(QuantStoreTest, MemoryBytesShrinkAsPromised) {
  const int64_t rows = 1000, dim = 64;
  const auto store = MakeStore(rows, dim, 7);
  const size_t fp32 = store.Snapshot().MemoryBytes();
  EXPECT_EQ(fp32, static_cast<size_t>(rows * dim) * sizeof(float));
  const size_t bf16 =
      store.Quantize(TensorDtype::kBf16).value().Snapshot().MemoryBytes();
  EXPECT_EQ(bf16, static_cast<size_t>(rows * dim) * sizeof(uint16_t));
  const size_t int8 =
      store.Quantize(TensorDtype::kInt8).value().Snapshot().MemoryBytes();
  EXPECT_EQ(int8, static_cast<size_t>(rows * dim) * sizeof(int8_t) +
                      static_cast<size_t>(rows) * sizeof(float));
  // The dim=64 footprint ratio the acceptance gate asserts at 10^6 rows.
  EXPECT_GE(static_cast<double>(fp32) / static_cast<double>(int8), 3.5);
}

TEST_F(QuantStoreTest, ExactModeMatchesBruteForceOverQuantizedTable) {
  const auto store = MakeStore(500, 32, 8);
  for (const TensorDtype dtype : {TensorDtype::kInt8, TensorDtype::kBf16}) {
    EmbeddingStore qstore = std::move(store.Quantize(dtype).value());
    TopKOptions exact;
    exact.rerank_candidates = -1;
    const TopKRetriever retriever(&qstore, exact);
    common::Rng rng(9);
    std::vector<float> queries(static_cast<size_t>(8 * 32));
    for (auto& v : queries) v = rng.UniformF(-1.0f, 1.0f);
    const auto fast = retriever.Retrieve(queries.data(), 8, 10);
    const auto ref = retriever.RetrieveBruteForce(queries.data(), 8, 10);
    ASSERT_EQ(fast.size(), ref.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].ids, ref[i].ids) << "query " << i;
      EXPECT_EQ(fast[i].scores, ref[i].scores) << "query " << i;
    }
  }
}

TEST_F(QuantStoreTest, Int8RetrievalRecallsTrueNeighborsWithSmallRerank) {
  const auto store = MakeStore(2000, 32, 10);
  const TopKRetriever truth_retriever(&store);
  common::Rng rng(11);
  constexpr int64_t kQueries = 16, kTop = 5;
  std::vector<float> queries(static_cast<size_t>(kQueries * 32));
  for (auto& v : queries) v = rng.UniformF(-1.0f, 1.0f);
  const auto truth =
      truth_retriever.RetrieveBruteForce(queries.data(), kQueries, kTop);

  EmbeddingStore qstore =
      std::move(store.Quantize(TensorDtype::kInt8).value());
  const TopKRetriever retriever(&qstore);  // default auto rerank
  const auto got = retriever.Retrieve(queries.data(), kQueries, kTop);
  int64_t hit = 0, total = 0;
  for (int64_t i = 0; i < kQueries; ++i) {
    for (const int64_t id : truth[static_cast<size_t>(i)].ids) {
      ++total;
      const auto& ids = got[static_cast<size_t>(i)].ids;
      hit += std::count(ids.begin(), ids.end(), id);
    }
  }
  // Quantization may flip near-ties but must not lose real neighbors.
  EXPECT_GE(static_cast<double>(hit) / static_cast<double>(total), 0.9);
}

std::vector<float> RandomQueries(int64_t count, int64_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> q(static_cast<size_t>(count * dim));
  for (auto& v : q) v = rng.UniformF(-1.0f, 1.0f);
  return q;
}

void ExpectBitExact(const std::vector<TopKResult>& got,
                    const std::vector<TopKResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ids, want[i].ids) << "query " << i;
    EXPECT_EQ(got[i].scores, want[i].scores) << "query " << i;
  }
}

TEST(RowSourceTest, SnapshotSourceExactModeMatchesTrueFp32BruteForce) {
  const auto store = MakeStore(1200, 24, 21);
  const TopKRetriever fp32_brute(&store);
  const auto queries = RandomQueries(16, 24, 22);
  const auto truth = fp32_brute.RetrieveBruteForce(queries.data(), 16, 7);

  EmbeddingStore qstore =
      std::move(store.Quantize(TensorDtype::kInt8).value());
  const SnapshotRowSource source(store.Snapshot());
  TopKOptions options;
  options.rerank_candidates = -1;
  options.rerank_source = &source;
  const TopKRetriever refined(&qstore, options);
  // Full-probe int8 scan + full-precision re-rank IS fp32 brute force,
  // bit for bit — not merely brute force over the dequantized table.
  ExpectBitExact(refined.Retrieve(queries.data(), 16, 7), truth);
}

TEST_F(QuantStoreTest, CheckpointSourceReadsRowsBitExactly) {
  const auto store = MakeStore(300, 20, 23);
  const std::string v2_path = Path("fp32_v2");
  ASSERT_TRUE(store.Save(v2_path).ok());

  // A v3 file whose tensor 0 is an fp32 record exercises the other header
  // layout the source understands.
  const EmbeddingSnapshot snap = store.Snapshot();
  nn::TrainingCheckpoint ckpt;
  auto q = nn::QuantizeTensor(
      *tensor::Tensor::FromData(300, 20, snap.data()),
      TensorDtype::kFloat32);
  ASSERT_TRUE(q.ok());
  ckpt.quant_tensors.push_back(std::move(q).value());
  const std::string v3_path = Path("fp32_v3");
  ASSERT_TRUE(nn::SaveCheckpoint(ckpt, v3_path).ok());

  for (const std::string& path : {v2_path, v3_path}) {
    auto opened = CheckpointRowSource::Open(path);
    ASSERT_TRUE(opened.ok()) << path << ": " << opened.status().ToString();
    const CheckpointRowSource source = std::move(opened).value();
    ASSERT_EQ(source.rows(), 300);
    ASSERT_EQ(source.dim(), 20);
    std::vector<float> row(20);
    for (const int64_t i : {int64_t{0}, int64_t{150}, int64_t{299}}) {
      ASSERT_TRUE(source.Row(i, row.data()));
      for (int64_t j = 0; j < 20; ++j) {
        ASSERT_EQ(row[static_cast<size_t>(j)], snap.row(i)[j])
            << path << " row " << i << " col " << j;
      }
    }
    // Out-of-range fetches fail instead of reading a neighbor's bytes.
    EXPECT_FALSE(source.Row(-1, row.data()));
    EXPECT_FALSE(source.Row(300, row.data()));
  }
}

TEST_F(QuantStoreTest, CheckpointBackedExactRerankMatchesFp32BruteForce) {
  const auto store = MakeStore(800, 16, 24);
  const std::string path = Path("refine_src");
  ASSERT_TRUE(store.Save(path).ok());
  auto opened = CheckpointRowSource::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const CheckpointRowSource source = std::move(opened).value();

  EmbeddingStore qstore =
      std::move(store.Quantize(TensorDtype::kInt8).value());
  TopKOptions options;
  options.rerank_candidates = -1;
  options.rerank_source = &source;
  const TopKRetriever refined(&qstore, options);
  const TopKRetriever fp32_brute(&store);
  const auto queries = RandomQueries(12, 16, 25);
  ExpectBitExact(refined.Retrieve(queries.data(), 12, 5),
                 fp32_brute.RetrieveBruteForce(queries.data(), 12, 5));
}

TEST_F(QuantStoreTest, CheckpointSourceRejectsBadFiles) {
  auto missing = CheckpointRowSource::Open(Path("does_not_exist"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), common::StatusCode::kIoError);

  // A v3 file whose tensor 0 is quantized holds no fp32 rows to serve.
  const auto store = MakeStore(64, 8, 26);
  EmbeddingStore int8_store =
      std::move(store.Quantize(TensorDtype::kInt8).value());
  const std::string int8_path = Path("int8_only");
  ASSERT_TRUE(int8_store.Save(int8_path).ok());
  auto not_fp32 = CheckpointRowSource::Open(int8_path);
  ASSERT_FALSE(not_fp32.ok());
  EXPECT_EQ(not_fp32.status().code(),
            common::StatusCode::kInvalidArgument);

  const std::string good_path = Path("good");
  ASSERT_TRUE(store.Save(good_path).ok());
  std::ifstream in(good_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  // Truncation loses the end marker; a flipped payload bit trips the
  // footer CRC the open-time validation recomputes.
  const std::string truncated_path = Path("truncated");
  std::ofstream(truncated_path, std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  auto truncated = CheckpointRowSource::Open(truncated_path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), common::StatusCode::kIoError);

  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x10);
  const std::string corrupt_path = Path("corrupt");
  std::ofstream(corrupt_path, std::ios::binary) << corrupt;
  auto flipped = CheckpointRowSource::Open(corrupt_path);
  ASSERT_FALSE(flipped.ok());
  EXPECT_EQ(flipped.status().code(), common::StatusCode::kIoError);
  EXPECT_NE(flipped.status().ToString().find("checksum"),
            std::string::npos);
}

class StubSource : public RowSource {
 public:
  StubSource(int64_t rows, int64_t dim, bool succeed)
      : rows_(rows), dim_(dim), succeed_(succeed) {}
  int64_t rows() const override { return rows_; }
  int64_t dim() const override { return dim_; }
  bool Row(int64_t, float*) const override { return succeed_; }

 private:
  int64_t rows_;
  int64_t dim_;
  bool succeed_;
};

TEST(RowSourceTest, MismatchedOrFailingSourceFallsBackToDequantizedRerank) {
  const auto store = MakeStore(400, 12, 27);
  EmbeddingStore qstore =
      std::move(store.Quantize(TensorDtype::kInt8).value());
  const auto queries = RandomQueries(8, 12, 28);
  const TopKRetriever raw(&qstore);
  const auto want = raw.Retrieve(queries.data(), 8, 5);

  // Shape mismatch (a reload swapped tables since the source was opened)
  // disables the source for the call; per-row fetch failures fall back
  // row by row. Either way the result is the self-contained re-rank, and
  // the retriever counts one source error per call or one per failed
  // fetch (8 queries x the C = 64 survivors of the auto re-rank width).
  const StubSource wrong_shape(399, 12, /*succeed=*/true);
  const StubSource failing(400, 12, /*succeed=*/false);
  const int64_t fetches = 8 * scoring::ResolveRerankCandidates(0, 5, 400);
  for (const auto& [source, errors] :
       {std::pair<const RowSource*, int64_t>{&wrong_shape, 1},
        std::pair<const RowSource*, int64_t>{&failing, fetches}}) {
    obs::MetricsRegistry registry;
    TopKOptions options;
    options.rerank_source = source;
    options.registry = &registry;
    const TopKRetriever refined(&qstore, options);
    ExpectBitExact(refined.Retrieve(queries.data(), 8, 5), want);
    EXPECT_EQ(registry.GetCounter("quant.rerank_source_errors").value(),
              errors);
  }
}

}  // namespace
}  // namespace desalign::serve
