#ifndef DESALIGN_BENCH_RETRIEVAL_BENCH_H_
#define DESALIGN_BENCH_RETRIEVAL_BENCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace desalign::bench {

/// Entity-count sweep of every retrieval path: brute force over fp32, bf16
/// and int8 storage, and the IVF index at full and partial probe. Each
/// size builds one clustered synthetic table (a mixture around random unit
/// centers: uniform noise has no cluster structure for an IVF to find and
/// no near neighbours for quantization to confuse), one query set and one
/// fp32 brute-force truth, and every path is scored against that truth.
struct RetrievalBenchOptions {
  std::vector<int64_t> entity_counts = {10000, 100000, 1000000};
  int64_t dim = 64;
  int64_t queries = 256;  ///< per case; latency is measured per query
  int64_t k = 10;
  int64_t nprobe = 8;         ///< probe width of the ivf_partial path
  int64_t num_centroids = 0;  ///< 0 = auto (~sqrt(n))
  int num_shards = 4;
  /// Stage-2 width of the measured int8 path: 0 = auto
  /// (min(n, max(4k, 64))), <0 = every row.
  int64_t rerank_candidates = 0;
  int64_t clusters = 256;  ///< mixture components in the synthetic data
  double noise = 0.25;     ///< per-coordinate noise amplitude
  uint64_t seed = 20240808;
  /// CI mode: only the smallest entity count, at most 128 queries.
  bool smoke = false;
};

/// One measured path of a case. `path` is "fp32", "bf16" or "int8"
/// (TopKRetriever over that storage) or "ivf_full" / "ivf_partial"
/// (IvfRetriever over the fp32 table, nprobe = num_centroids /
/// options.nprobe). Accuracy is measured against the case's truth.
struct RetrievalBenchPath {
  std::string path;
  int64_t nprobe = 0;              ///< IVF only
  int64_t table_bytes = 0;         ///< EmbeddingTable::MemoryBytes() scanned
  double memory_reduction = 0.0;   ///< fp32 table_bytes / table_bytes
  double batch_ms = 0.0;           ///< one Retrieve of every query
  double mean_ms = 0.0;            ///< per query, as a batch of one
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
  double recall_at_k = 0.0;
  /// int8: recall with stage 2 over dequantized rows, where recall_at_k
  /// refines from the fp32 checkpoint on disk (only the int8 table is
  /// resident). Equals recall_at_k on every other path.
  double recall_at_k_raw = 0.0;
  double hits_at_1 = 0.0;        ///< rank-1 id agrees with the truth's
  double hits_at_1_delta = 0.0;  ///< 1 - hits_at_1
  bool bitexact = false;         ///< ids and scores byte-equal the truth
  double mean_candidates = 0.0;  ///< rows scored per query
  int64_t rerank_candidates = 0;  ///< resolved stage-2 width (int8 only)
  /// Brute force only: exact mode (every row re-ranked) byte-equals
  /// RetrieveBruteForce over this path's own table.
  std::optional<bool> bitexact_full;
  /// int8 only: exact mode refined from fp32 rows byte-equals the truth.
  std::optional<bool> refined_exact_matches_fp32;
};

struct RetrievalBenchCase {
  int64_t entities = 0;
  int64_t dim = 0;
  int64_t k = 0;
  int64_t num_centroids = 0;
  int shards = 0;
  double build_ms = 0.0;  ///< IVF build
  double truth_ms = 0.0;  ///< single-threaded RetrieveBruteForce, all queries
  std::vector<RetrievalBenchPath> paths;
};

struct RetrievalBenchReport {
  std::vector<RetrievalBenchCase> cases;
  /// Schema desalign.retrieval_bench.v1; gated by tools/ci.sh --index and
  /// --quant.
  std::string ToJson() const;
};

RetrievalBenchReport RunRetrievalBench(const RetrievalBenchOptions& options);

}  // namespace desalign::bench

#endif  // DESALIGN_BENCH_RETRIEVAL_BENCH_H_
