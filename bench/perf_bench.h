#ifndef DESALIGN_BENCH_PERF_BENCH_H_
#define DESALIGN_BENCH_PERF_BENCH_H_

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/embedding_store.h"
#include "serve/retriever.h"

namespace desalign::bench {

/// The `perf_bench` binary: `perf_bench kernels|retrieval|overload [flags]`
/// writes BENCH_kernels.json, BENCH_retrieval.json or BENCH_overload.json
/// (schemas desalign.kernel_bench.v3, desalign.retrieval_bench.v1 and
/// desalign.overload_bench.v1); `perf_bench <command> --help` lists the
/// command's flags. Returns the exit code: 2 for a missing or unknown
/// command, 1 when a flag is malformed (checked before anything is
/// measured) or the report cannot be written, else 0. Summaries go to
/// `out`, diagnostics to stderr.
int RunPerfBench(int argc, const char* const* argv, std::ostream& out);

/// Shared by the benches: JSON values, clustered synthetic data (uniform
/// noise has no structure for an IVF to find, and no near-duplicate
/// neighbours for quantization to confuse) and answer comparison.

inline std::string JsonNum(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

inline const char* JsonBool(bool v) { return v ? "true" : "false"; }

inline std::vector<float> UnitCenters(common::Rng& rng, int64_t clusters,
                                      int64_t dim) {
  std::vector<float> centers(static_cast<size_t>(clusters * dim));
  for (auto& v : centers) v = rng.UniformF(-1.0f, 1.0f);
  serve::L2NormalizeRows(centers.data(), clusters, dim);
  return centers;
}

inline std::vector<float> MixtureRows(common::Rng& rng,
                                      const std::vector<float>& centers,
                                      int64_t clusters, int64_t n,
                                      int64_t dim, double noise) {
  std::vector<float> rows(static_cast<size_t>(n * dim));
  const auto amp = static_cast<float>(noise);
  for (int64_t i = 0; i < n; ++i) {
    const float* center = centers.data() + rng.UniformInt(clusters) * dim;
    float* row = rows.data() + i * dim;
    for (int64_t j = 0; j < dim; ++j) {
      row[j] = center[j] + amp * rng.UniformF(-1.0f, 1.0f);
    }
  }
  return rows;
}

/// ids and scores byte-equal.
inline bool SameAnswer(const serve::TopKResult& a,
                       const serve::TopKResult& b) {
  return a.ids == b.ids && a.scores == b.scores;
}

}  // namespace desalign::bench

#endif  // DESALIGN_BENCH_PERF_BENCH_H_
