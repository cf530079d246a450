#include "nn/serialize.h"

#include <cstdint>
#include <fstream>

#include "common/fault_injection.h"
#include "nn/checkpoint.h"

namespace desalign::nn {

namespace {

using common::Status;

// The legacy v1 format; nn::ParseCheckpoint is its reader.
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

common::Result<std::vector<tensor::TensorPtr>> LoadAllParameters(
    const std::string& path) {
  DESALIGN_ASSIGN_OR_RETURN(TrainingCheckpoint ckpt, LoadCheckpoint(path));
  return std::move(ckpt.tensors);
}

}  // namespace desalign::nn
