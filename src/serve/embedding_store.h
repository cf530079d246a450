#ifndef DESALIGN_SERVE_EMBEDDING_STORE_H_
#define DESALIGN_SERVE_EMBEDDING_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "nn/quant.h"
#include "tensor/tensor.h"

namespace desalign::serve {

class ServeStats;

/// Retry policy for EmbeddingStore::Reload.
struct ReloadOptions {
  int max_attempts = 3;     ///< total load attempts (>= 1)
  double backoff_ms = 10.0; ///< sleep before retry 2; doubles per retry
};

/// One immutable embedding table of `rows` x `cols`, row-major, stored in
/// one of three dtypes. fp32 tables hold L2-normalized rows in `data`;
/// int8 tables hold per-row symmetric codes in `codes` plus one fp32
/// scale per row in `scales`; bf16 tables hold rounded patterns in
/// `bf16`. Exactly the vector(s) matching `dtype` are populated. Tables
/// are shared read-only between the owning EmbeddingStore and any number
/// of in-flight EmbeddingSnapshot holders and never mutated after
/// construction — which is why a Reload may swap dtypes freely: readers
/// pin whole tables, never fields of one.
struct EmbeddingTable {
  int64_t rows = 0;
  int64_t cols = 0;
  nn::TensorDtype dtype = nn::TensorDtype::kFloat32;
  std::vector<float> data;      ///< kFloat32
  std::vector<int8_t> codes;    ///< kInt8: rows * cols
  std::vector<float> scales;    ///< kInt8: one per row
  std::vector<uint16_t> bf16;   ///< kBf16

  /// Bytes held by the populated payload vector(s), scales included — the
  /// quantity BENCH_retrieval.json reports as `table_bytes`.
  size_t MemoryBytes() const;
};

/// A consistent, immutable view of an EmbeddingStore's table at one point
/// in time. Copyable and cheap (shared_ptr bump); the underlying table
/// stays alive — and bit-identical — for as long as any snapshot holds it,
/// even across concurrent Reload swaps. Every query path (TopKRetriever,
/// the IVF index) scans through a snapshot, which is what makes hot reload
/// race-free: a reload publishes a *new* table, it never mutates one a
/// reader may be scanning.
class EmbeddingSnapshot {
 public:
  /// Empty (0 x 0) view.
  EmbeddingSnapshot();

  int64_t size() const { return table_->rows; }
  int64_t dim() const { return table_->cols; }
  nn::TensorDtype dtype() const { return table_->dtype; }
  size_t MemoryBytes() const { return table_->MemoryBytes(); }

  /// Contiguous row `i` (dim() floats); valid for the snapshot's lifetime.
  /// Only meaningful for kFloat32 tables — quantized tables have no fp32
  /// block; use RowAsFloat (or the dtype-specific accessors) instead.
  const float* row(int64_t i) const {
    return table_->data.data() + i * table_->cols;
  }
  const std::vector<float>& data() const { return table_->data; }

  /// kInt8 accessors: row `i`'s codes and its dequantization scale.
  const int8_t* codes_row(int64_t i) const {
    return table_->codes.data() + i * table_->cols;
  }
  float scale(int64_t i) const {
    return table_->scales[static_cast<size_t>(i)];
  }

  /// kBf16 accessor.
  const uint16_t* bf16_row(int64_t i) const {
    return table_->bf16.data() + i * table_->cols;
  }

  /// Row `i` as fp32 regardless of dtype: returns the stored pointer for
  /// kFloat32 (scratch untouched) and otherwise dequantizes into `scratch`
  /// (at least dim() floats) and returns it. Dequantization is fixed-order
  /// scalar float math, so callers on any thread / ISA reconstruct
  /// bit-identical rows — the property that keeps k-means builds and the
  /// fp32 re-rank deterministic over quantized tables.
  const float* RowAsFloat(int64_t i, float* scratch) const;

 private:
  friend class EmbeddingStore;
  explicit EmbeddingSnapshot(std::shared_ptr<const EmbeddingTable> table);

  std::shared_ptr<const EmbeddingTable> table_;  // never null
};

/// Query-time holder of a fused entity embedding table. Rows are copied
/// once into a contiguous row-major float block and L2-normalized at
/// construction, so cosine similarity at serving time is a plain dot
/// product and every retrieval touches cache-friendly memory.
///
/// A store is either built in-memory from a tensor produced by a fitted
/// model (`align::FusionAlignModel::FusedEmbeddings`) or restored from an
/// `nn::serialize` checkpoint file, which is how a trained model's
/// embeddings reach a serving process that never sees the training data.
///
/// Concurrency: the store holds its table behind a mutex-guarded
/// shared_ptr. `Snapshot()` hands out an immutable view that outlives any
/// concurrent `Reload`, so queries racing a reload are well-defined: each
/// query sees exactly one table, either fully-old or fully-new
/// (tests/serve/reload_race_test.cc runs this under TSan). The
/// convenience accessors `row()`/`data()` read the *current* table and
/// are only safe while no concurrent Reload can swap it; retrieval code
/// must hold a Snapshot instead.
class EmbeddingStore {
 public:
  /// Copies and L2-normalizes all rows of `embeddings`. Zero rows (e.g.
  /// entities whose every modality was missing) stay zero and therefore
  /// never enter a top-k result ahead of a real match.
  static EmbeddingStore FromTensor(const tensor::Tensor& embeddings);

  /// Adopts `data` (size must equal rows * cols) and L2-normalizes it.
  static EmbeddingStore FromRows(int64_t rows, int64_t cols,
                                 std::vector<float> data);

  /// Writes the table as a single-tensor checkpoint: v2 for fp32 tables,
  /// v3 (dtype-tagged) for quantized ones. Either way the file is
  /// checksummed and atomically published, and loadable with `Load` below
  /// (and, for any dtype, with `nn::LoadAllParameters`, which sees the
  /// dequantized fp32 view). The record is written straight from the
  /// table (nn::SaveTensorRecord): the only extra memory is the encoded
  /// file. An empty store is rejected with InvalidArgument.
  common::Status Save(const std::string& path) const;

  /// Restores a store from checkpoint tensor `tensor_index` of `path`.
  /// Returns a clean Status (never crashes) on missing, corrupt or
  /// truncated files. fp32 tensors (v1/v2, or fp32 records in v3) are
  /// re-normalized defensively so a store is valid even when the
  /// checkpoint holds raw embeddings; quantized v3 records are adopted
  /// verbatim — codes and scales round-trip bit-exactly, and
  /// re-normalizing their dequantized view would silently perturb scores.
  /// The file goes through nn::ParseCheckpoint, the same validation as
  /// nn::LoadCheckpoint, and the record's payload vectors move into the
  /// table: peak memory is the encoded file plus its payload, and no
  /// Tensor or fp32 view of a quantized record is built.
  static common::Result<EmbeddingStore> Load(const std::string& path,
                                             int64_t tensor_index = 0);

  /// Returns a new store holding this store's rows quantized to `dtype`
  /// (the offline path behind `desalign quantize`). Requires the current
  /// table to be fp32 — requantizing already-quantized rows would stack
  /// rounding error invisibly. kFloat32 returns a plain shared-table copy.
  common::Result<EmbeddingStore> Quantize(nn::TensorDtype dtype) const;

  /// Empty store (0 x 0); exists so the class fits common::Result. Every
  /// populated store comes from the factories above.
  EmbeddingStore();

  EmbeddingStore(EmbeddingStore&& other) noexcept;
  EmbeddingStore& operator=(EmbeddingStore&& other) noexcept;
  /// Copies share the immutable table (shared_ptr bump, no data copy).
  EmbeddingStore(const EmbeddingStore& other);
  EmbeddingStore& operator=(const EmbeddingStore& other);

  /// Degradation-safe snapshot swap: loads and fully validates the
  /// checkpoint at `path` (checksums included for v2 files) into a fresh
  /// table and only then publishes it as the current table; concurrent
  /// queries holding a Snapshot keep scanning the old table, which stays
  /// alive until the last snapshot drops. On any failure — missing file,
  /// corruption, torn write — the store keeps serving its previous
  /// snapshot unchanged. Transient IO errors are retried up to
  /// `options.max_attempts` with exponential backoff; a dimension change
  /// relative to the current (non-empty) table is permanent and fails
  /// immediately, since queries embedded for the old dim cannot be scored
  /// against the new one. A *dtype* change at the same dim is allowed —
  /// swapping an fp32 table for its int8/bf16 quantization (or back) is
  /// exactly how a serving process migrates storage formats without a
  /// restart (tests/serve/quant_reload_race_test.cc runs this under TSan).
  /// Outcomes are counted on `stats` when provided
  /// (`<prefix>.reloads_ok` / `<prefix>.reloads_failed`).
  common::Status Reload(const std::string& path,
                        const ReloadOptions& options = {},
                        ServeStats* stats = nullptr);

  /// The current table as an immutable shared view; the only way to read
  /// rows concurrently with Reload.
  EmbeddingSnapshot Snapshot() const;

  int64_t size() const;
  int64_t dim() const;

  /// Contiguous row `i` (dim() floats). Single-threaded convenience: the
  /// pointer targets the current table and dangles if a concurrent Reload
  /// swaps it. Hold a Snapshot() in retrieval code.
  const float* row(int64_t i) const;
  const std::vector<float>& data() const;

 private:
  EmbeddingStore(int64_t rows, int64_t cols, std::vector<float> data);
  explicit EmbeddingStore(std::shared_ptr<const EmbeddingTable> table);

  std::shared_ptr<const EmbeddingTable> SharedTable() const;

  mutable common::Mutex mutex_;
  std::shared_ptr<const EmbeddingTable> table_ GUARDED_BY(mutex_);
};

/// L2-normalizes each `dim`-sized row of `data` in place; rows with norm
/// below `eps` are left untouched. Shared by the store and query paths so
/// stored rows and incoming queries go through bit-identical scaling.
void L2NormalizeRows(float* data, int64_t rows, int64_t dim,
                     float eps = 1e-12f);

}  // namespace desalign::serve

#endif  // DESALIGN_SERVE_EMBEDDING_STORE_H_
