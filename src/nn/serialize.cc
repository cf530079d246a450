#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/fault_injection.h"
#include "nn/checkpoint.h"

namespace desalign::nn {

namespace {

using common::Status;

constexpr char kMagic[] = "DESALIGNPARAMS1";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;

}  // namespace

Status SaveParameters(const std::vector<tensor::TensorPtr>& params,
                      const std::string& path) {
  // Fault site for crash-safety tests (the checkpoint layer's torn-write
  // coverage lives in common/atomic_file; this guards the legacy format).
  if (common::FaultInjector::Global().OnSite("params.write")) {
    return Status::IoError("injected fault at params.write writing " + path);
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.write(kMagic, kMagicLen);
  const int64_t count = static_cast<int64_t>(params.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& p : params) {
    const int64_t rows = p->rows();
    const int64_t cols = p->cols();
    out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    out.write(reinterpret_cast<const char*>(p->data().data()),
              static_cast<std::streamsize>(sizeof(float) * rows * cols));
  }
  if (!out) return Status::IoError("short write to " + path);
  return Status::Ok();
}

Status LoadParameters(const std::vector<tensor::TensorPtr>& params,
                      const std::string& path) {
  if (IsVersionedCheckpoint(path)) {
    DESALIGN_ASSIGN_OR_RETURN(TrainingCheckpoint ckpt, LoadCheckpoint(path));
    if (ckpt.tensors.size() != params.size()) {
      return Status::InvalidArgument(
          "checkpoint holds " + std::to_string(ckpt.tensors.size()) +
          " tensors, model has " + std::to_string(params.size()));
    }
    // Validate every shape before touching the model so a mismatch cannot
    // leave it half-loaded.
    for (size_t i = 0; i < params.size(); ++i) {
      if (ckpt.tensors[i]->rows() != params[i]->rows() ||
          ckpt.tensors[i]->cols() != params[i]->cols()) {
        return Status::InvalidArgument(
            "checkpoint tensor shape " +
            std::to_string(ckpt.tensors[i]->rows()) + "x" +
            std::to_string(ckpt.tensors[i]->cols()) +
            " does not match model " + std::to_string(params[i]->rows()) +
            "x" + std::to_string(params[i]->cols()));
      }
    }
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->data() = std::move(ckpt.tensors[i]->data());
    }
    return Status::Ok();
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  char magic[kMagicLen];
  in.read(magic, kMagicLen);
  if (!in || std::memcmp(magic, kMagic, kMagicLen) != 0) {
    return Status::IoError(path + " is not a DESAlign checkpoint");
  }
  int64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || count != static_cast<int64_t>(params.size())) {
    return Status::InvalidArgument(
        "checkpoint holds " + std::to_string(count) + " tensors, model has " +
        std::to_string(params.size()));
  }
  // Stage into buffers first so a mid-file error leaves the model intact.
  std::vector<std::vector<float>> staged;
  staged.reserve(params.size());
  for (const auto& p : params) {
    int64_t rows = 0;
    int64_t cols = 0;
    in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
    in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
    if (!in || rows != p->rows() || cols != p->cols()) {
      return Status::InvalidArgument(
          "checkpoint tensor shape " + std::to_string(rows) + "x" +
          std::to_string(cols) + " does not match model " +
          std::to_string(p->rows()) + "x" + std::to_string(p->cols()));
    }
    std::vector<float> data(static_cast<size_t>(rows * cols));
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(sizeof(float) * rows * cols));
    if (!in) return Status::IoError("short read from " + path);
    staged.push_back(std::move(data));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->data() = std::move(staged[i]);
  }
  return Status::Ok();
}

common::Result<std::vector<tensor::TensorPtr>> LoadAllParameters(
    const std::string& path) {
  if (IsVersionedCheckpoint(path)) {
    DESALIGN_ASSIGN_OR_RETURN(TrainingCheckpoint ckpt, LoadCheckpoint(path));
    return std::move(ckpt.tensors);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  char magic[kMagicLen];
  in.read(magic, kMagicLen);
  if (!in || std::memcmp(magic, kMagic, kMagicLen) != 0) {
    return Status::IoError(path + " is not a DESAlign checkpoint");
  }
  int64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  // Cap the header values before trusting them with allocations: a
  // truncated or bit-flipped file must fail cleanly, not bad_alloc.
  constexpr int64_t kMaxTensors = 1 << 20;
  constexpr int64_t kMaxElements = int64_t{1} << 33;  // 32 GiB of floats
  if (!in || count < 0 || count > kMaxTensors) {
    return Status::IoError(path + " has an implausible tensor count (" +
                           std::to_string(count) + "); corrupt checkpoint?");
  }
  std::vector<tensor::TensorPtr> tensors;
  tensors.reserve(static_cast<size_t>(count));
  for (int64_t t = 0; t < count; ++t) {
    int64_t rows = 0;
    int64_t cols = 0;
    in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
    in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
    if (!in) return Status::IoError("truncated checkpoint " + path);
    if (rows <= 0 || cols <= 0 || cols > kMaxElements / rows) {
      return Status::IoError(path + " tensor " + std::to_string(t) +
                             " has an implausible shape " +
                             std::to_string(rows) + "x" +
                             std::to_string(cols) + "; corrupt checkpoint?");
    }
    std::vector<float> data(static_cast<size_t>(rows * cols));
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(sizeof(float) * rows * cols));
    if (!in) return Status::IoError("truncated checkpoint " + path);
    tensors.push_back(tensor::Tensor::FromData(rows, cols, std::move(data)));
  }
  return tensors;
}

}  // namespace desalign::nn
