#include "serve/row_source.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/atomic_file.h"
#include "nn/checkpoint.h"

namespace desalign::serve {

namespace {

template <typename T>
T ReadLe(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

bool SnapshotRowSource::Row(int64_t i, float* out) const {
  if (i < 0 || i >= snapshot_.size()) return false;
  const int64_t d = snapshot_.dim();
  const float* row = snapshot_.RowAsFloat(i, out);
  if (row != out) std::memcpy(out, row, static_cast<size_t>(d) * sizeof(float));
  return true;
}

common::Result<CheckpointRowSource> CheckpointRowSource::Open(
    const std::string& path) {
  std::string bytes;
  DESALIGN_RETURN_NOT_OK(
      common::ReadFileToString(path, &bytes, "ckpt.read"));
  DESALIGN_ASSIGN_OR_RETURN(const nn::CheckpointEnvelope envelope,
                            nn::ValidateCheckpointEnvelope(bytes, path));
  // Body header through tensor 0's dims: version/epoch/flags/count (24B)
  // plus the record header, v3's being the larger (1 + 8 + 8).
  const char* body = envelope.body.data();
  const int64_t body_len = static_cast<int64_t>(envelope.body.size());
  if (body_len < 24 + 17) {
    return common::Status::IoError("checkpoint " + path +
                                   " is too short to hold a tensor");
  }
  const int64_t tensor_count = ReadLe<int64_t>(body + 16);
  if (tensor_count < 1) {
    return common::Status::IoError("checkpoint " + path + " holds no tensors");
  }
  int64_t offset = 24;
  if (envelope.v3) {
    const uint8_t dtype = static_cast<uint8_t>(body[offset]);
    if (dtype != 0) {
      return common::Status::InvalidArgument(
          "checkpoint " + path +
          " tensor 0 is not fp32; quantized records hold no full-precision "
          "rows");
    }
    offset += 1;
  }
  const int64_t rows = ReadLe<int64_t>(body + offset);
  const int64_t cols = ReadLe<int64_t>(body + offset + 8);
  offset += 16;
  if (rows <= 0 || cols <= 0) {
    return common::Status::IoError("checkpoint " + path +
                                   " tensor 0 has implausible shape");
  }
  // The payload and its CRC must fit in the body; divide rather than
  // multiply so a lying shape cannot overflow.
  const int64_t room = body_len - offset - 4;
  if (rows > room / static_cast<int64_t>(sizeof(float)) / cols) {
    return common::Status::IoError("checkpoint " + path +
                                   " tensor 0 payload exceeds the file");
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return common::Status::IoError("cannot reopen checkpoint " + path);
  }
  return CheckpointRowSource(fd, rows, cols, body - bytes.data() + offset);
}

CheckpointRowSource::CheckpointRowSource(CheckpointRowSource&& other) noexcept
    : fd_(other.fd_),
      rows_(other.rows_),
      cols_(other.cols_),
      payload_offset_(other.payload_offset_) {
  other.fd_ = -1;
}

CheckpointRowSource& CheckpointRowSource::operator=(
    CheckpointRowSource&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    rows_ = other.rows_;
    cols_ = other.cols_;
    payload_offset_ = other.payload_offset_;
    other.fd_ = -1;
  }
  return *this;
}

CheckpointRowSource::~CheckpointRowSource() {
  if (fd_ >= 0) ::close(fd_);
}

bool CheckpointRowSource::Row(int64_t i, float* out) const {
  if (fd_ < 0 || i < 0 || i >= rows_) return false;
  const size_t want = static_cast<size_t>(cols_) * sizeof(float);
  size_t done = 0;
  char* dst = reinterpret_cast<char*>(out);
  const int64_t base = payload_offset_ + i * static_cast<int64_t>(want);
  while (done < want) {
    const ssize_t got = ::pread(fd_, dst + done, want - done,
                                static_cast<off_t>(base + done));
    if (got <= 0) return false;
    done += static_cast<size_t>(got);
  }
  return true;
}

}  // namespace desalign::serve
