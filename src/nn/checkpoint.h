#ifndef DESALIGN_NN_CHECKPOINT_H_
#define DESALIGN_NN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "nn/quant.h"
#include "tensor/tensor.h"

namespace desalign::nn {

/// Everything a training run needs to continue bit-exactly: model params,
/// AdamW moments + step, the RNG engine, the epoch counter, and the loop's
/// scalar state (early-stop bookkeeping and the non-finite LR backoff).
/// The params-only subset (`tensors` with every `has_*` flag false) is the
/// shape serve-side embedding snapshots use.
///
/// `quant_tensors` is the v3 dtype-tagged path: when non-empty the
/// checkpoint is a params-only quantized snapshot (no optimizer / RNG /
/// train state — fp32 moments for int8 params make no sense) and
/// SaveCheckpoint writes the v3 format. Loading a v3 file fills
/// `quant_tensors` with the stored payloads AND `tensors` with their
/// dequantized fp32 views, so every legacy fp32 consumer keeps working.
struct TrainingCheckpoint {
  int64_t epoch = 0;  ///< last completed epoch (0-based)
  std::vector<tensor::TensorPtr> tensors;
  std::vector<QuantTensor> quant_tensors;  ///< non-empty => v3 on save

  bool has_optimizer = false;
  int64_t opt_step = 0;
  std::vector<std::vector<float>> opt_m;  ///< first moments, per tensor
  std::vector<std::vector<float>> opt_v;  ///< second moments, per tensor

  bool has_rng = false;
  std::string rng_state;  ///< common::Rng::SerializeState()

  bool has_train_state = false;
  float best_loss = 0.0f;  ///< early-stopping best
  int32_t stall = 0;       ///< early-stopping stall counter
  float lr_scale = 1.0f;   ///< non-finite-guard LR backoff factor
};

/// Writes `ckpt` to `path` in the versioned v2 format: magic, header,
/// per-tensor payloads each followed by a CRC32, optional optimizer / RNG /
/// train-state sections, a footer CRC32 over everything after the magic,
/// and a trailing end marker. The file is published atomically (tmp +
/// fsync + rename via common::AtomicWriteFile, fault site "ckpt.write"),
/// so a crash mid-save never clobbers an existing checkpoint.
///
/// When `quant_tensors` is non-empty the v3 format is written instead:
/// same envelope, but each tensor record is `u8 dtype | i64 rows |
/// i64 cols | dtype-specific payload` (int8 adds an explicit scale count
/// plus a separately checksummed scale array). v3 files are params-only:
/// `tensors` must be empty and every `has_*` flag false, or the save is
/// rejected. See docs/ROBUSTNESS.md for both byte layouts.
common::Status SaveCheckpoint(const TrainingCheckpoint& ckpt,
                              const std::string& path);

/// Loads and fully validates a v2 or v3 checkpoint: head/tail magic,
/// footer CRC, bounds-checked section parsing, per-payload CRCs (v3 also
/// checks dtype ids and the int8 scale count against the record shape).
/// Any corruption — truncation, torn write, bit flip — yields a clean
/// error Status; corrupt data is never returned. Also accepts legacy
/// SaveParameters (v1) files, which load as params-only checkpoints (no
/// integrity check beyond shape plausibility — v1 predates checksums).
/// Fault site "ckpt.read".
common::Result<TrainingCheckpoint> LoadCheckpoint(const std::string& path);

/// True when `path` starts with the v2 or v3 checkpoint magic. Missing or
/// short files report false.
bool IsVersionedCheckpoint(const std::string& path);

/// A checkpoint as stored: every tensor record in its on-disk dtype (v1
/// and v2 records are all kFloat32, in `f32`) plus the optional training
/// sections, which land in `state` — whose `tensors` and `quant_tensors`
/// stay empty.
struct CheckpointRecords {
  bool v3 = false;
  std::vector<QuantTensor> records;
  TrainingCheckpoint state;
};

/// The record-level parse of the checkpoint format, and the only one:
/// LoadCheckpoint adds its fp32 Tensor views on top, and
/// serve::EmbeddingStore::Load moves one record's payload straight into
/// its table. Reads `path` once (fault site "ckpt.read"), v1 files
/// included, and validates it exactly as LoadCheckpoint does — every
/// corrupt input gets the same Status — but builds no Tensor.
common::Result<CheckpointRecords> ParseCheckpoint(const std::string& path);

/// The footer-checksummed body of a v2/v3 checkpoint file held in memory.
struct CheckpointEnvelope {
  std::string_view body;  ///< bytes between the magic and the footer CRC
  bool v3 = false;
};

/// Checks the envelope of `file`, the bytes of `path`: the v2/v3 magic,
/// the end marker and the footer CRC32 over the body. An IoError naming
/// `path` otherwise. Shared by ParseCheckpoint and
/// serve::CheckpointRowSource::Open.
common::Result<CheckpointEnvelope> ValidateCheckpointEnvelope(
    std::string_view file, const std::string& path);

/// A borrowed tensor payload in its storage dtype: what one checkpoint
/// record holds. Only the pointer(s) matching `dtype` are read; each must
/// cover rows * cols elements (`scales`: rows).
struct TensorRecordView {
  TensorDtype dtype = TensorDtype::kFloat32;
  int64_t rows = 0;
  int64_t cols = 0;
  const float* f32 = nullptr;
  const int8_t* codes = nullptr;
  const float* scales = nullptr;
  const uint16_t* bf16 = nullptr;
};

/// Writes `record` as a params-only, epoch-0 checkpoint: v2 when it is
/// fp32, v3 otherwise. The bytes equal SaveCheckpoint's for the
/// equivalent TrainingCheckpoint (one fp32 tensor, or one quant tensor),
/// written through the same record writer, but no Tensor or payload copy
/// is made: the file is built in one buffer of its exact size. Empty
/// records are rejected with InvalidArgument. Fault site "ckpt.write".
common::Status SaveTensorRecord(const TensorRecordView& record,
                                const std::string& path);

/// Rotating last-K checkpoint directory with a manifest. Files are named
/// `ckpt_<epoch>.dckpt`; `MANIFEST` lists them oldest-first and is itself
/// written atomically (fault site "manifest.write"), so the directory is
/// always recoverable. A missing or corrupt manifest is rebuilt by
/// scanning the directory, which makes the manager safe to point at a
/// directory a crashed run left in any state.
class CheckpointManager {
 public:
  struct Options {
    int keep_last = 3;  ///< checkpoints retained after pruning (>= 1)
  };

  explicit CheckpointManager(std::string dir) : CheckpointManager(std::move(dir), Options()) {}
  CheckpointManager(std::string dir, Options options);

  /// Creates the directory if needed and loads (or rebuilds) the manifest.
  common::Status Init();

  /// Saves `ckpt` as `ckpt_<epoch>.dckpt`, updates the manifest, then
  /// prunes to the newest `keep_last` files. Pruning happens only after
  /// the new checkpoint is durable, so the retained set never shrinks
  /// below keep_last valid-at-write-time snapshots.
  common::Status Write(const TrainingCheckpoint& ckpt);

  /// Loads the newest checkpoint that passes full validation, walking
  /// backwards past corrupt ones (each rejection is logged). NotFound when
  /// no file validates. `loaded_path`, when non-null, receives the
  /// winning file's path.
  common::Result<TrainingCheckpoint> LoadLatestValid(
      std::string* loaded_path = nullptr) const;

  /// Manifest contents, oldest first (file names, not paths).
  const std::vector<std::string>& files() const { return files_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string PathOf(const std::string& name) const;
  common::Status WriteManifest() const;

  std::string dir_;
  Options options_;
  std::vector<std::string> files_;  // oldest first
};

}  // namespace desalign::nn

#endif  // DESALIGN_NN_CHECKPOINT_H_
