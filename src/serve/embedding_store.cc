#include "serve/embedding_store.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "nn/checkpoint.h"
#include "serve/stats.h"

namespace desalign::serve {

namespace {

const std::shared_ptr<const EmbeddingTable>& EmptyTable() {
  static const std::shared_ptr<const EmbeddingTable> empty =
      std::make_shared<const EmbeddingTable>();
  return empty;
}

// Quantized payloads move in verbatim: codes and scales round-trip
// bit-exactly, and re-normalizing a dequantized view would perturb scores.
std::shared_ptr<const EmbeddingTable> TableFromQuantTensor(
    nn::QuantTensor&& q) {
  auto table = std::make_shared<EmbeddingTable>();
  table->rows = q.rows;
  table->cols = q.cols;
  table->dtype = q.dtype;
  table->codes = std::move(q.codes);
  table->scales = std::move(q.scales);
  table->bf16 = std::move(q.bf16);
  return table;
}

}  // namespace

size_t EmbeddingTable::MemoryBytes() const {
  return data.size() * sizeof(float) + codes.size() * sizeof(int8_t) +
         scales.size() * sizeof(float) + bf16.size() * sizeof(uint16_t);
}

const float* EmbeddingSnapshot::RowAsFloat(int64_t i, float* scratch) const {
  const int64_t d = table_->cols;
  switch (table_->dtype) {
    case nn::TensorDtype::kFloat32:
      return table_->data.data() + i * d;
    case nn::TensorDtype::kInt8:
      nn::quant::DequantizeRow(table_->codes.data() + i * d, d,
                               table_->scales[static_cast<size_t>(i)],
                               scratch);
      return scratch;
    case nn::TensorDtype::kBf16:
      nn::quant::Bf16DecodeRow(table_->bf16.data() + i * d, d, scratch);
      return scratch;
  }
  return scratch;
}

void L2NormalizeRows(float* data, int64_t rows, int64_t dim, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    float* row = data + r * dim;
    float sum = 0.0f;
    for (int64_t c = 0; c < dim; ++c) sum += row[c] * row[c];
    // Idempotent within float rounding: rows that are already unit (e.g.
    // a store re-loaded from its own checkpoint) keep their exact bits, so
    // save/load round trips are bit-exact.
    if (std::fabs(sum - 1.0f) <= 1e-5f) continue;
    const float norm = std::sqrt(sum);
    if (norm <= eps) continue;
    const float inv = 1.0f / norm;
    for (int64_t c = 0; c < dim; ++c) row[c] *= inv;
  }
}

EmbeddingSnapshot::EmbeddingSnapshot() : table_(EmptyTable()) {}

EmbeddingSnapshot::EmbeddingSnapshot(
    std::shared_ptr<const EmbeddingTable> table)
    : table_(std::move(table)) {
  DESALIGN_CHECK(table_ != nullptr);
}

EmbeddingStore::EmbeddingStore() : table_(EmptyTable()) {}

EmbeddingStore::EmbeddingStore(int64_t rows, int64_t cols,
                               std::vector<float> data) {
  DESALIGN_CHECK_EQ(static_cast<int64_t>(data.size()), rows * cols);
  L2NormalizeRows(data.data(), rows, cols);
  auto table = std::make_shared<EmbeddingTable>();
  table->rows = rows;
  table->cols = cols;
  table->data = std::move(data);
  common::MutexLock lock(mutex_);
  table_ = std::move(table);
}

EmbeddingStore::EmbeddingStore(std::shared_ptr<const EmbeddingTable> table) {
  DESALIGN_CHECK(table != nullptr);
  common::MutexLock lock(mutex_);
  table_ = std::move(table);
}

EmbeddingStore::EmbeddingStore(EmbeddingStore&& other) noexcept
    : table_(other.SharedTable()) {}

EmbeddingStore& EmbeddingStore::operator=(EmbeddingStore&& other) noexcept {
  auto table = other.SharedTable();
  common::MutexLock lock(mutex_);
  table_ = std::move(table);
  return *this;
}

EmbeddingStore::EmbeddingStore(const EmbeddingStore& other)
    : table_(other.SharedTable()) {}

EmbeddingStore& EmbeddingStore::operator=(const EmbeddingStore& other) {
  auto table = other.SharedTable();
  common::MutexLock lock(mutex_);
  table_ = std::move(table);
  return *this;
}

std::shared_ptr<const EmbeddingTable> EmbeddingStore::SharedTable() const {
  common::MutexLock lock(mutex_);
  return table_;
}

EmbeddingSnapshot EmbeddingStore::Snapshot() const {
  return EmbeddingSnapshot(SharedTable());
}

int64_t EmbeddingStore::size() const { return SharedTable()->rows; }

int64_t EmbeddingStore::dim() const { return SharedTable()->cols; }

const float* EmbeddingStore::row(int64_t i) const {
  const auto table = SharedTable();
  return table->data.data() + i * table->cols;
}

const std::vector<float>& EmbeddingStore::data() const {
  return SharedTable()->data;
}

EmbeddingStore EmbeddingStore::FromTensor(const tensor::Tensor& embeddings) {
  return EmbeddingStore(embeddings.rows(), embeddings.cols(),
                        embeddings.data());
}

EmbeddingStore EmbeddingStore::FromRows(int64_t rows, int64_t cols,
                                        std::vector<float> data) {
  return EmbeddingStore(rows, cols, std::move(data));
}

common::Status EmbeddingStore::Save(const std::string& path) const {
  const auto table = SharedTable();
  return nn::SaveTensorRecord({.dtype = table->dtype,
                               .rows = table->rows,
                               .cols = table->cols,
                               .f32 = table->data.data(),
                               .codes = table->codes.data(),
                               .scales = table->scales.data(),
                               .bf16 = table->bf16.data()},
                              path);
}

common::Result<EmbeddingStore> EmbeddingStore::Load(const std::string& path,
                                                    int64_t tensor_index) {
  DESALIGN_ASSIGN_OR_RETURN(auto parsed, nn::ParseCheckpoint(path));
  auto& records = parsed.records;
  if (tensor_index < 0 ||
      tensor_index >= static_cast<int64_t>(records.size())) {
    return common::Status::InvalidArgument(
        "checkpoint " + path + " holds " + std::to_string(records.size()) +
        " tensors; index " + std::to_string(tensor_index) +
        " is out of range");
  }
  nn::QuantTensor& q = records[static_cast<size_t>(tensor_index)];
  if (q.dtype == nn::TensorDtype::kFloat32) {
    return EmbeddingStore(q.rows, q.cols, std::move(q.f32));
  }
  return EmbeddingStore(TableFromQuantTensor(std::move(q)));
}

common::Result<EmbeddingStore> EmbeddingStore::Quantize(
    nn::TensorDtype dtype) const {
  const auto table = SharedTable();
  if (table->dtype != nn::TensorDtype::kFloat32) {
    return common::Status::InvalidArgument(
        std::string("cannot quantize a ") + nn::DtypeName(table->dtype) +
        " table; quantize from the fp32 original");
  }
  if (dtype == nn::TensorDtype::kFloat32) return *this;
  auto out = std::make_shared<EmbeddingTable>();
  out->rows = table->rows;
  out->cols = table->cols;
  out->dtype = dtype;
  if (dtype == nn::TensorDtype::kInt8) {
    out->codes.resize(table->data.size());
    out->scales.resize(static_cast<size_t>(table->rows));
    for (int64_t r = 0; r < table->rows; ++r) {
      const common::Status status = nn::quant::QuantizeRow(
          table->data.data() + r * table->cols, table->cols,
          out->codes.data() + r * table->cols, out->scales.data() + r);
      if (!status.ok()) {
        return common::Status::InvalidArgument(
            "row " + std::to_string(r) + ": " + status.message());
      }
    }
  } else {
    out->bf16.resize(table->data.size());
    nn::quant::Bf16EncodeRow(table->data.data(),
                             static_cast<int64_t>(table->data.size()),
                             out->bf16.data());
  }
  return EmbeddingStore(
      std::shared_ptr<const EmbeddingTable>(std::move(out)));
}

common::Status EmbeddingStore::Reload(const std::string& path,
                                      const ReloadOptions& options,
                                      ServeStats* stats) {
  const int attempts = std::max(options.max_attempts, 1);
  double backoff_ms = options.backoff_ms;
  common::Status last = common::Status::Internal("reload never attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && backoff_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
      backoff_ms *= 2.0;
    }
    auto loaded = Load(path);
    if (loaded.ok()) {
      const auto current = SharedTable();
      const auto fresh = loaded.value().SharedTable();
      if (current->rows > 0 && fresh->cols != current->cols) {
        // Permanent: queries embedded for the old dimension cannot be
        // scored against the new table, so retrying cannot help.
        if (stats != nullptr) stats->RecordReload(false);
        return common::Status::InvalidArgument(
            "reload of " + path + " would change dim from " +
            std::to_string(current->cols) + " to " +
            std::to_string(fresh->cols));
      }
      {
        // The swap is the only mutation; in-flight snapshots keep the old
        // table alive and bit-identical until they drop.
        common::MutexLock lock(mutex_);
        table_ = fresh;
      }
      if (stats != nullptr) stats->RecordReload(true);
      return common::Status::Ok();
    }
    last = loaded.status();
    DESALIGN_LOG(Warning) << "reload attempt " << (attempt + 1) << "/"
                          << attempts << " failed: " << last.ToString();
    if (last.code() == common::StatusCode::kInvalidArgument) break;
  }
  if (stats != nullptr) stats->RecordReload(false);
  return last;  // the previous snapshot is still being served
}

}  // namespace desalign::serve
