#ifndef DESALIGN_SERVE_BENCH_UTIL_H_
#define DESALIGN_SERVE_BENCH_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/embedding_store.h"

namespace desalign::serve::bench {

/// Shared by the retrieval and overload benches: clustered synthetic data
/// (uniform noise has no structure for an IVF to find, and no
/// near-duplicate neighbours for quantization to confuse — both would make
/// the measured numbers meaningless) and JSON numbers.

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

inline std::string JsonNum(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

}  // namespace desalign::serve::bench

#endif  // DESALIGN_SERVE_BENCH_UTIL_H_
