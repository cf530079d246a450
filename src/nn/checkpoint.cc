#include "nn/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/strings.h"
#include "nn/serialize.h"

namespace desalign::nn {

namespace {

using common::Crc32;
using common::Result;
using common::Status;

// v2 layout (docs/ROBUSTNESS.md):
//   kMagic
//   -- footer-checksummed region --
//   u32 version | i64 epoch | u32 flags | i64 tensor_count
//   per tensor: i64 rows | i64 cols | f32[rows*cols] | u32 crc(payload)
//   [flags&kHasOptimizer] i64 step; per tensor: f32[] m, u32 crc,
//                                               f32[] v, u32 crc
//   [flags&kHasRng]       i64 len | bytes | u32 crc
//   [flags&kHasTrain]     f32 best_loss | i32 stall | f32 lr_scale
//   -- region ends --
//   u32 footer_crc(region) | kEndMarker
constexpr char kMagic[] = "DESALIGNCKPT2\n";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;
constexpr char kEndMarker[] = "DCKPTEND";
constexpr size_t kEndMarkerLen = sizeof(kEndMarker) - 1;
constexpr size_t kFooterLen = sizeof(uint32_t) + kEndMarkerLen;
constexpr uint32_t kVersion = 2;
constexpr uint32_t kHasOptimizer = 1;
constexpr uint32_t kHasRng = 2;
constexpr uint32_t kHasTrain = 4;

// v3 layout (docs/ROBUSTNESS.md): same envelope (magic, footer CRC over the
// body, end marker), but every tensor record carries a dtype tag and a
// dtype-specific payload. v3 files are params-only (flags must be 0).
//   kMagicV3
//   -- footer-checksummed region --
//   u32 version(3) | i64 epoch | u32 flags(0) | i64 tensor_count
//   per tensor: u8 dtype | i64 rows | i64 cols |
//     dtype 0 (fp32): f32[rows*cols] | u32 crc
//     dtype 1 (int8): i64 scale_count | f32 scales[scale_count] | u32 crc
//                     | i8 codes[rows*cols] | u32 crc
//     dtype 2 (bf16): u16[rows*cols] | u32 crc
//   -- region ends --
//   u32 footer_crc(region) | kEndMarker
// scale_count is stored explicitly (it must equal rows) so a file whose
// scale array disagrees with its shape is rejected as corrupt instead of
// silently misframing every record after it.
constexpr char kMagicV3[] = "DESALIGNCKPT3\n";
constexpr size_t kMagicV3Len = sizeof(kMagicV3) - 1;
constexpr uint32_t kVersionV3 = 3;
static_assert(kMagicV3Len == kMagicLen, "v2/v3 magics must share a length");

constexpr char kLegacyMagic[] = "DESALIGNPARAMS1";
constexpr size_t kLegacyMagicLen = sizeof(kLegacyMagic) - 1;

/// Appends the footer-checksummed body of a checkpoint file. Built without
/// a target it only counts bytes: WriteFile runs every layout once through
/// a counting writer to size the file exactly and once for real, so a file
/// is one allocation, sealed in place.
class BodyWriter {
 public:
  BodyWriter() = default;
  explicit BodyWriter(std::string* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&value, sizeof(T));
  }

  /// `count` elements followed by the CRC32 of their bytes.
  template <typename T>
  void Array(const T* values, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t bytes = count * sizeof(T);
    Bytes(values, bytes);
    Put<uint32_t>(out_ != nullptr ? Crc32(values, bytes) : 0);
  }

  size_t size() const { return size_; }

 private:
  void Bytes(const void* data, size_t n) {
    if (out_ != nullptr) out_->append(static_cast<const char*>(data), n);
    size_ += n;
  }

  std::string* out_ = nullptr;
  size_t size_ = 0;
};

void WriteHeader(BodyWriter& w, uint32_t version, int64_t epoch,
                 uint32_t flags, size_t tensor_count) {
  w.Put<uint32_t>(version);
  w.Put<int64_t>(epoch);
  w.Put<uint32_t>(flags);
  w.Put<int64_t>(static_cast<int64_t>(tensor_count));
}

// The one tensor-record writer: v2 records are untagged fp32, v3 records
// lead with their dtype tag. The caller has checked the payload sizes.
void WriteRecord(BodyWriter& w, bool v3, const TensorRecordView& r) {
  const size_t elems = static_cast<size_t>(r.rows * r.cols);
  if (v3) w.Put<uint8_t>(static_cast<uint8_t>(r.dtype));
  w.Put<int64_t>(r.rows);
  w.Put<int64_t>(r.cols);
  switch (r.dtype) {
    case TensorDtype::kFloat32:
      w.Array(r.f32, elems);
      break;
    case TensorDtype::kInt8:
      w.Put<int64_t>(r.rows);  // scale count: one scale per row
      w.Array(r.scales, static_cast<size_t>(r.rows));
      w.Array(r.codes, elems);
      break;
    case TensorDtype::kBf16:
      w.Array(r.bf16, elems);
      break;
  }
}

// Publishes magic | body | u32 crc(body) | end marker atomically (fault
// site "ckpt.write"). `write_body` runs twice: to size, then to fill.
template <typename WriteBody>
Status WriteFile(const char* magic, const WriteBody& write_body,
                 const std::string& path) {
  BodyWriter counter;
  write_body(counter);
  std::string file;
  file.reserve(kMagicLen + counter.size() + kFooterLen);
  file.append(magic, kMagicLen);
  BodyWriter body(&file);
  write_body(body);
  const uint32_t crc = Crc32(file.data() + kMagicLen, body.size());
  file.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  file.append(kEndMarker, kEndMarkerLen);
  return common::AtomicWriteFile(path, file, "ckpt.write");
}

/// Bounds-checked forward-only reader over the in-memory file. Every Read
/// validates the remaining length first, so a truncated or lying header can
/// never cause an out-of-bounds read or an unbounded allocation.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Reads `count` elements plus their trailing CRC; false on truncation,
  /// CRC mismatch sets `*crc_ok` false (payload is still consumed).
  template <typename T>
  bool ReadArray(size_t count, std::vector<T>* out, bool* crc_ok) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t payload = count * sizeof(T);
    if (remaining() < payload + sizeof(uint32_t)) return false;
    out->resize(count);
    std::memcpy(out->data(), bytes_.data() + pos_, payload);
    const uint32_t actual = Crc32(bytes_.data() + pos_, payload);
    pos_ += payload;
    uint32_t stored = 0;
    Read(&stored);
    *crc_ok = stored == actual;
    return true;
  }

  bool ReadString(size_t count, std::string* out) {
    if (remaining() < count) return false;
    out->assign(bytes_.data() + pos_, count);
    pos_ += count;
    return true;
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& path, const std::string& detail) {
  return Status::IoError("corrupt checkpoint " + path + ": " + detail);
}

// Parses tensor record `index` into `q`, checking its shape against the
// bytes left and every payload CRC.
Status ReadRecord(ByteReader& reader, bool v3, int64_t index,
                  const std::string& path, QuantTensor* q) {
  uint8_t dtype_tag = 0;  // v2 records are untagged fp32
  if ((v3 && !reader.Read(&dtype_tag)) || !reader.Read(&q->rows) ||
      !reader.Read(&q->cols)) {
    return Corrupt(path, "truncated tensor header");
  }
  if (dtype_tag > static_cast<uint8_t>(TensorDtype::kBf16)) {
    return Corrupt(path, "tensor " + std::to_string(index) +
                             " has unknown dtype id " +
                             std::to_string(dtype_tag));
  }
  q->dtype = static_cast<TensorDtype>(dtype_tag);
  const size_t elem_bytes = DtypeBytes(q->dtype);
  if (q->rows < 0 || q->cols < 0 ||
      (q->cols > 0 &&
       q->rows > static_cast<int64_t>(reader.remaining() / elem_bytes) /
                     q->cols)) {
    return Corrupt(path, "implausible tensor shape " +
                             std::to_string(q->rows) + "x" +
                             std::to_string(q->cols));
  }
  const size_t elems = static_cast<size_t>(q->rows * q->cols);
  bool crc_ok = true;
  switch (q->dtype) {
    case TensorDtype::kFloat32:
      if (!reader.ReadArray(elems, &q->f32, &crc_ok)) {
        return Corrupt(path, "truncated tensor payload");
      }
      break;
    case TensorDtype::kInt8: {
      int64_t scale_count = 0;
      if (!reader.Read(&scale_count)) {
        return Corrupt(path, "truncated scale count");
      }
      if (scale_count != q->rows) {
        return Corrupt(path, "tensor " + std::to_string(index) +
                                 " scale count " +
                                 std::to_string(scale_count) +
                                 " does not match rows " +
                                 std::to_string(q->rows));
      }
      if (!reader.ReadArray(static_cast<size_t>(scale_count), &q->scales,
                            &crc_ok)) {
        return Corrupt(path, "truncated scale payload");
      }
      if (!crc_ok) {
        return Corrupt(path, "tensor " + std::to_string(index) +
                                 " scale checksum mismatch");
      }
      if (!reader.ReadArray(elems, &q->codes, &crc_ok)) {
        return Corrupt(path, "truncated tensor payload");
      }
      break;
    }
    case TensorDtype::kBf16:
      if (!reader.ReadArray(elems, &q->bf16, &crc_ok)) {
        return Corrupt(path, "truncated tensor payload");
      }
      break;
  }
  if (!crc_ok) {
    return Corrupt(path, "tensor " + std::to_string(index) +
                             " checksum mismatch");
  }
  return Status::Ok();
}

Status SaveCheckpointV3(const TrainingCheckpoint& ckpt,
                        const std::string& path) {
  if (!ckpt.tensors.empty()) {
    return Status::InvalidArgument(
        "a v3 checkpoint stores quant_tensors only; move fp32 tensors into "
        "quant_tensors as kFloat32 records");
  }
  if (ckpt.has_optimizer || ckpt.has_rng || ckpt.has_train_state) {
    return Status::InvalidArgument(
        "quantized checkpoints are params-only snapshots; optimizer / rng / "
        "train state cannot be attached");
  }
  std::vector<TensorRecordView> records;
  records.reserve(ckpt.quant_tensors.size());
  for (size_t i = 0; i < ckpt.quant_tensors.size(); ++i) {
    const QuantTensor& q = ckpt.quant_tensors[i];
    const size_t elems = static_cast<size_t>(q.rows * q.cols);
    switch (q.dtype) {
      case TensorDtype::kFloat32:
        if (q.f32.size() != elems) {
          return Status::InvalidArgument("tensor " + std::to_string(i) +
                                         ": fp32 payload size mismatch");
        }
        break;
      case TensorDtype::kInt8:
        if (q.codes.size() != elems ||
            q.scales.size() != static_cast<size_t>(q.rows)) {
          return Status::InvalidArgument("tensor " + std::to_string(i) +
                                         ": int8 payload size mismatch");
        }
        break;
      case TensorDtype::kBf16:
        if (q.bf16.size() != elems) {
          return Status::InvalidArgument("tensor " + std::to_string(i) +
                                         ": bf16 payload size mismatch");
        }
        break;
      default:
        return Status::InvalidArgument("tensor " + std::to_string(i) +
                                       ": unknown dtype");
    }
    records.push_back({.dtype = q.dtype,
                       .rows = q.rows,
                       .cols = q.cols,
                       .f32 = q.f32.data(),
                       .codes = q.codes.data(),
                       .scales = q.scales.data(),
                       .bf16 = q.bf16.data()});
  }
  return WriteFile(
      kMagicV3,
      [&](BodyWriter& w) {
        WriteHeader(w, kVersionV3, ckpt.epoch, /*flags=*/0, records.size());
        for (const auto& r : records) WriteRecord(w, /*v3=*/true, r);
      },
      path);
}

}  // namespace

Status SaveCheckpoint(const TrainingCheckpoint& ckpt,
                      const std::string& path) {
  if (!ckpt.quant_tensors.empty()) {
    return SaveCheckpointV3(ckpt, path);
  }
  if (ckpt.has_optimizer) {
    if (ckpt.opt_m.size() != ckpt.tensors.size() ||
        ckpt.opt_v.size() != ckpt.tensors.size()) {
      return Status::InvalidArgument(
          "optimizer moment count does not match tensor count");
    }
    for (size_t i = 0; i < ckpt.tensors.size(); ++i) {
      if (ckpt.opt_m[i].size() != ckpt.tensors[i]->data().size() ||
          ckpt.opt_v[i].size() != ckpt.tensors[i]->data().size()) {
        return Status::InvalidArgument(
            "optimizer moment size does not match tensor " +
            std::to_string(i));
      }
    }
  }
  const uint32_t flags = (ckpt.has_optimizer ? kHasOptimizer : 0) |
                         (ckpt.has_rng ? kHasRng : 0) |
                         (ckpt.has_train_state ? kHasTrain : 0);
  return WriteFile(
      kMagic,
      [&](BodyWriter& w) {
        WriteHeader(w, kVersion, ckpt.epoch, flags, ckpt.tensors.size());
        for (const auto& t : ckpt.tensors) {
          WriteRecord(w, /*v3=*/false,
                      {.rows = t->rows(), .cols = t->cols(),
                       .f32 = t->data().data()});
        }
        if (ckpt.has_optimizer) {
          w.Put<int64_t>(ckpt.opt_step);
          for (size_t i = 0; i < ckpt.tensors.size(); ++i) {
            w.Array(ckpt.opt_m[i].data(), ckpt.opt_m[i].size());
            w.Array(ckpt.opt_v[i].data(), ckpt.opt_v[i].size());
          }
        }
        if (ckpt.has_rng) {
          w.Put<int64_t>(static_cast<int64_t>(ckpt.rng_state.size()));
          w.Array(ckpt.rng_state.data(), ckpt.rng_state.size());
        }
        if (ckpt.has_train_state) {
          w.Put<float>(ckpt.best_loss);
          w.Put<int32_t>(ckpt.stall);
          w.Put<float>(ckpt.lr_scale);
        }
      },
      path);
}

Status SaveTensorRecord(const TensorRecordView& record,
                        const std::string& path) {
  if (record.rows <= 0 || record.cols <= 0) {
    return Status::InvalidArgument("cannot save an empty " +
                                   std::to_string(record.rows) + "x" +
                                   std::to_string(record.cols) + " tensor");
  }
  const bool v3 = record.dtype != TensorDtype::kFloat32;
  return WriteFile(
      v3 ? kMagicV3 : kMagic,
      [&](BodyWriter& w) {
        WriteHeader(w, v3 ? kVersionV3 : kVersion, /*epoch=*/0, /*flags=*/0,
                    /*tensor_count=*/1);
        WriteRecord(w, v3, record);
      },
      path);
}

bool IsVersionedCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[kMagicLen];
  in.read(magic, kMagicLen);
  return in && (std::memcmp(magic, kMagic, kMagicLen) == 0 ||
                std::memcmp(magic, kMagicV3, kMagicV3Len) == 0);
}

Result<CheckpointEnvelope> ValidateCheckpointEnvelope(
    std::string_view file, const std::string& path) {
  const bool is_v3 =
      file.size() >= kMagicV3Len &&
      std::memcmp(file.data(), kMagicV3, kMagicV3Len) == 0;
  if (file.size() < kMagicLen + kFooterLen ||
      (!is_v3 && std::memcmp(file.data(), kMagic, kMagicLen) != 0)) {
    return Status::IoError(path + " is not a DESAlign checkpoint");
  }
  if (std::memcmp(file.data() + file.size() - kEndMarkerLen, kEndMarker,
                  kEndMarkerLen) != 0) {
    return Corrupt(path, "missing end marker (torn write?)");
  }
  const size_t body_len = file.size() - kMagicLen - kFooterLen;
  uint32_t footer_crc = 0;
  std::memcpy(&footer_crc, file.data() + kMagicLen + body_len,
              sizeof(footer_crc));
  if (Crc32(file.data() + kMagicLen, body_len) != footer_crc) {
    return Corrupt(path, "footer checksum mismatch");
  }
  CheckpointEnvelope envelope;
  envelope.body = file.substr(kMagicLen, body_len);
  envelope.v3 = is_v3;
  return envelope;
}

Result<CheckpointRecords> ParseCheckpoint(const std::string& path) {
  std::string bytes;
  DESALIGN_RETURN_NOT_OK(
      common::ReadFileToString(path, &bytes, "ckpt.read"));

  CheckpointRecords out;
  if (bytes.size() >= kLegacyMagicLen &&
      std::memcmp(bytes.data(), kLegacyMagic, kLegacyMagicLen) == 0) {
    // Legacy SaveParameters file: params only, pre-checksum era.
    DESALIGN_ASSIGN_OR_RETURN(auto tensors, LoadAllParameters(path));
    for (const auto& t : tensors) {
      QuantTensor q;
      q.rows = t->rows();
      q.cols = t->cols();
      q.f32 = std::move(t->data());
      out.records.push_back(std::move(q));
    }
    return out;
  }
  DESALIGN_ASSIGN_OR_RETURN(const CheckpointEnvelope envelope,
                            ValidateCheckpointEnvelope(bytes, path));
  out.v3 = envelope.v3;
  ByteReader reader(envelope.body);
  TrainingCheckpoint& state = out.state;
  uint32_t version = 0;
  uint32_t flags = 0;
  int64_t tensor_count = 0;
  if (!reader.Read(&version) || !reader.Read(&state.epoch) ||
      !reader.Read(&flags) || !reader.Read(&tensor_count)) {
    return Corrupt(path, "truncated header");
  }
  if (version != (out.v3 ? kVersionV3 : kVersion)) {
    return Status::IoError(path + " has unsupported checkpoint version " +
                           std::to_string(version));
  }
  if (out.v3 && flags != 0) {
    return Corrupt(path, "v3 checkpoint with nonzero flags " +
                             std::to_string(flags));
  }
  if (tensor_count < 0 || state.epoch < 0) {
    return Corrupt(path, "negative header field");
  }
  for (int64_t t = 0; t < tensor_count; ++t) {
    QuantTensor q;
    DESALIGN_RETURN_NOT_OK(ReadRecord(reader, out.v3, t, path, &q));
    out.records.push_back(std::move(q));
  }
  bool crc_ok = true;
  if (flags & kHasOptimizer) {
    state.has_optimizer = true;
    if (!reader.Read(&state.opt_step)) {
      return Corrupt(path, "truncated optimizer step");
    }
    for (size_t t = 0; t < out.records.size(); ++t) {
      const size_t n = out.records[t].f32.size();
      std::vector<float> m;
      std::vector<float> v;
      if (!reader.ReadArray(n, &m, &crc_ok) || !crc_ok) {
        return Corrupt(path, "bad optimizer m for tensor " +
                                 std::to_string(t));
      }
      if (!reader.ReadArray(n, &v, &crc_ok) || !crc_ok) {
        return Corrupt(path, "bad optimizer v for tensor " +
                                 std::to_string(t));
      }
      state.opt_m.push_back(std::move(m));
      state.opt_v.push_back(std::move(v));
    }
  }
  if (flags & kHasRng) {
    state.has_rng = true;
    int64_t len = 0;
    if (!reader.Read(&len) || len < 0 ||
        static_cast<size_t>(len) > reader.remaining() ||
        !reader.ReadString(static_cast<size_t>(len), &state.rng_state)) {
      return Corrupt(path, "truncated rng state");
    }
    uint32_t stored = 0;
    if (!reader.Read(&stored) ||
        stored != Crc32(state.rng_state.data(), state.rng_state.size())) {
      return Corrupt(path, "rng state checksum mismatch");
    }
  }
  if (flags & kHasTrain) {
    state.has_train_state = true;
    if (!reader.Read(&state.best_loss) || !reader.Read(&state.stall) ||
        !reader.Read(&state.lr_scale)) {
      return Corrupt(path, "truncated train state");
    }
  }
  if (reader.remaining() != 0) {
    return Corrupt(path, std::to_string(reader.remaining()) +
                             " unexpected trailing bytes");
  }
  return out;
}

Result<TrainingCheckpoint> LoadCheckpoint(const std::string& path) {
  DESALIGN_ASSIGN_OR_RETURN(CheckpointRecords parsed, ParseCheckpoint(path));
  TrainingCheckpoint ckpt = std::move(parsed.state);
  ckpt.tensors.reserve(parsed.records.size());
  for (QuantTensor& q : parsed.records) {
    // A v3 record keeps its stored payload and gains a dequantized fp32
    // view, so every legacy consumer (LoadAllParameters, LoadParameters)
    // reads v3 transparently; v1/v2 records are fp32 and move in as is.
    ckpt.tensors.push_back(
        parsed.v3 ? DequantizeTensor(q)
                  : tensor::Tensor::FromData(q.rows, q.cols,
                                             std::move(q.f32)));
  }
  if (parsed.v3) ckpt.quant_tensors = std::move(parsed.records);
  return ckpt;
}

// ---------------------------------------------------------------------------
// CheckpointManager

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "desalign.ckpt.manifest.v1";
constexpr char kFilePrefix[] = "ckpt_";
constexpr char kFileSuffix[] = ".dckpt";

std::string CheckpointFileName(int64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08lld%s", kFilePrefix,
                static_cast<long long>(epoch), kFileSuffix);
  return buf;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  options_.keep_last = std::max(options_.keep_last, 1);
}

std::string CheckpointManager::PathOf(const std::string& name) const {
  return dir_ + "/" + name;
}

Status CheckpointManager::Init() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint directory " + dir_ +
                           ": " + ec.message());
  }
  files_.clear();
  // Prefer the manifest; fall back to a directory scan so a crashed or
  // manually pruned directory still resumes.
  std::ifstream manifest(PathOf(kManifestName));
  std::string line;
  if (manifest && std::getline(manifest, line) && line == kManifestHeader) {
    while (std::getline(manifest, line)) {
      const std::string name(common::Trim(line));
      if (!name.empty() && std::filesystem::exists(PathOf(name))) {
        files_.push_back(name);
      }
    }
    return Status::Ok();
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (common::StartsWith(name, kFilePrefix) &&
        name.size() > std::strlen(kFileSuffix) &&
        name.compare(name.size() - std::strlen(kFileSuffix),
                     std::strlen(kFileSuffix), kFileSuffix) == 0) {
      files_.push_back(name);
    }
  }
  std::sort(files_.begin(), files_.end());  // zero-padded epoch => oldest first
  return Status::Ok();
}

Status CheckpointManager::WriteManifest() const {
  std::string body(kManifestHeader);
  body.push_back('\n');
  for (const auto& name : files_) {
    body += name;
    body.push_back('\n');
  }
  return common::AtomicWriteFile(PathOf(kManifestName), body,
                                 "manifest.write");
}

Status CheckpointManager::Write(const TrainingCheckpoint& ckpt) {
  const std::string name = CheckpointFileName(ckpt.epoch);
  DESALIGN_RETURN_NOT_OK(SaveCheckpoint(ckpt, PathOf(name)));
  if (std::find(files_.begin(), files_.end(), name) == files_.end()) {
    files_.push_back(name);
  }
  // Prune only after the new file is durable and listed.
  DESALIGN_RETURN_NOT_OK(WriteManifest());
  while (static_cast<int>(files_.size()) > options_.keep_last) {
    std::error_code ec;
    std::filesystem::remove(PathOf(files_.front()), ec);
    files_.erase(files_.begin());
  }
  return WriteManifest();
}

Result<TrainingCheckpoint> CheckpointManager::LoadLatestValid(
    std::string* loaded_path) const {
  for (auto it = files_.rbegin(); it != files_.rend(); ++it) {
    const std::string path = PathOf(*it);
    auto loaded = LoadCheckpoint(path);
    if (loaded.ok()) {
      if (loaded_path != nullptr) *loaded_path = path;
      return loaded;
    }
    DESALIGN_LOG(Warning) << "skipping unloadable checkpoint: "
                          << loaded.status().ToString();
  }
  return Status::NotFound("no valid checkpoint in " + dir_);
}

}  // namespace desalign::nn
