#ifndef DESALIGN_SERVE_BENCH_UTIL_H_
#define DESALIGN_SERVE_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "serve/embedding_store.h"
#include "serve/retriever.h"

namespace desalign::serve::bench {

/// Shared plumbing for the index, quantization and overload benches:
/// clustered synthetic data (uniform noise has no structure for an IVF to
/// find, and no near-duplicate neighbours for quantization to confuse —
/// both would make the measured numbers meaningless), per-query latency
/// measurement, result comparison and JSON numbers.

using RetrieveFn = std::function<std::vector<serve::TopKResult>(
    const float*, int64_t, int64_t)>;

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

struct LatencyStats {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
};

/// Issues the queries one by one (batch of 1, the online-serving shape).
inline LatencyStats MeasureLatency(const RetrieveFn& retrieve,
                                   const float* queries, int64_t num_queries,
                                   int64_t dim, int64_t k) {
  std::vector<double> ms(static_cast<size_t>(num_queries));
  common::Stopwatch total;
  for (int64_t i = 0; i < num_queries; ++i) {
    common::Stopwatch clock;
    const auto result = retrieve(queries + i * dim, 1, k);
    ms[static_cast<size_t>(i)] = clock.ElapsedMillis();
    DESALIGN_CHECK_EQ(static_cast<int64_t>(result.size()), 1);
  }
  const double total_s = total.ElapsedSeconds();
  double sum = 0.0;
  for (const double v : ms) sum += v;
  std::sort(ms.begin(), ms.end());
  const auto at = [&](double q) {
    const auto idx =
        static_cast<size_t>(q * static_cast<double>(num_queries - 1));
    return ms[idx];
  };
  LatencyStats stats;
  stats.mean_ms = sum / static_cast<double>(num_queries);
  stats.p50_ms = at(0.5);
  stats.p99_ms = at(0.99);
  stats.qps =
      total_s > 0.0 ? static_cast<double>(num_queries) / total_s : 0.0;
  return stats;
}

/// ids AND scores byte-equal — the determinism-contract comparison.
inline bool BitExact(const std::vector<serve::TopKResult>& a,
                     const std::vector<serve::TopKResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].ids != b[i].ids || a[i].scores != b[i].scores) return false;
  }
  return true;
}

/// Per-query id lists, the shape eval::MeanRecallAtK / HitsAt1Agreement
/// consume.
inline std::vector<std::vector<int64_t>> IdsOf(
    const std::vector<serve::TopKResult>& results) {
  std::vector<std::vector<int64_t>> ids;
  ids.reserve(results.size());
  for (const auto& r : results) ids.push_back(r.ids);
  return ids;
}

inline std::string JsonNum(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

}  // namespace desalign::serve::bench

#endif  // DESALIGN_SERVE_BENCH_UTIL_H_
