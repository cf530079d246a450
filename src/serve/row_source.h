#ifndef DESALIGN_SERVE_ROW_SOURCE_H_
#define DESALIGN_SERVE_ROW_SOURCE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "serve/embedding_store.h"

namespace desalign::serve {

/// Read-only provider of full-precision fp32 rows for the stage-2 re-rank
/// over an int8 table (TopKOptions::rerank_source). The quantized table
/// answers the candidate scan from resident memory; the source supplies
/// the original fp32 rows — typically from the checkpoint the table was
/// quantized from — so the re-rank recovers exact scores without keeping
/// an fp32 copy of the whole table in RAM.
///
/// Implementations must be safe to call concurrently from const methods:
/// Retrieve fetches rows from worker threads.
class RowSource {
 public:
  virtual ~RowSource() = default;

  virtual int64_t rows() const = 0;
  virtual int64_t dim() const = 0;

  /// Copies fp32 row `i` into `out` (at least dim() floats). Returns false
  /// on failure, in which case the caller falls back to the dequantized
  /// row; `out` may hold partial data.
  virtual bool Row(int64_t i, float* out) const = 0;
};

/// A RowSource over an in-memory EmbeddingSnapshot — the sidecar form used
/// by tests and by bench sweeps that already hold the fp32 table. The
/// snapshot pins its table, so the source stays valid across concurrent
/// store reloads.
class SnapshotRowSource : public RowSource {
 public:
  explicit SnapshotRowSource(EmbeddingSnapshot snapshot)
      : snapshot_(std::move(snapshot)) {}

  int64_t rows() const override { return snapshot_.size(); }
  int64_t dim() const override { return snapshot_.dim(); }
  bool Row(int64_t i, float* out) const override;

 private:
  EmbeddingSnapshot snapshot_;
};

/// A RowSource that reads fp32 rows on demand (pread, no seek state) from
/// tensor 0 of a v2 checkpoint or an fp32 record of a v3 checkpoint on
/// disk. Open() reads the file once (fault site "ckpt.read") to verify
/// the envelope with nn::ValidateCheckpointEnvelope — magic, end marker,
/// footer CRC32 over the whole body — and to locate the tensor-0 payload;
/// after that only the requested rows are read, so the resident cost of
/// full-precision re-ranking is the page cache working set of the
/// re-ranked candidates, not the fp32 table.
///
/// Row() trusts the kernel for reads after the open-time validation; a
/// file replaced in place (rather than atomically, as the checkpoint
/// writer does) invalidates the source. Thread-safe: pread carries its own
/// offset, so concurrent Retrieve workers share one descriptor.
class CheckpointRowSource : public RowSource {
 public:
  /// Validates `path` and returns a ready source. Fails with a clean
  /// Status on a missing file, a non-checkpoint file, a corrupt envelope,
  /// or a v3 tensor 0 that is not fp32 (quantized records hold no
  /// full-precision rows to refine with).
  static common::Result<CheckpointRowSource> Open(const std::string& path);

  /// Empty source (0 x 0, every Row fails); exists so the class fits
  /// common::Result. Usable sources come from Open.
  CheckpointRowSource() = default;

  CheckpointRowSource(CheckpointRowSource&& other) noexcept;
  CheckpointRowSource& operator=(CheckpointRowSource&& other) noexcept;
  CheckpointRowSource(const CheckpointRowSource&) = delete;
  CheckpointRowSource& operator=(const CheckpointRowSource&) = delete;
  ~CheckpointRowSource() override;

  int64_t rows() const override { return rows_; }
  int64_t dim() const override { return cols_; }
  bool Row(int64_t i, float* out) const override;

 private:
  CheckpointRowSource(int fd, int64_t rows, int64_t cols,
                      int64_t payload_offset)
      : fd_(fd), rows_(rows), cols_(cols), payload_offset_(payload_offset) {}

  int fd_ = -1;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t payload_offset_ = 0;
};

}  // namespace desalign::serve

#endif  // DESALIGN_SERVE_ROW_SOURCE_H_
