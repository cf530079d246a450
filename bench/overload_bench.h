#ifndef DESALIGN_BENCH_OVERLOAD_BENCH_H_
#define DESALIGN_BENCH_OVERLOAD_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace desalign::bench {

/// Open-loop overload sweep for the BatchQueue front door. A closed-loop
/// probe first measures the retriever's sustainable capacity; the sweep
/// then offers fixed multiples of it (open loop — arrivals do not wait
/// for completions, the honest way to model an external client fleet) and
/// records what bounded admission, deadlines and the degradation ladder
/// make of the excess: goodput must stay near capacity and the p99 of
/// admitted requests must stay bounded while the surplus is shed, and
/// after the storm the queue must walk back to healthy and serve
/// bit-identical full-quality results. tools/ci.sh --overload gates on
/// the committed BENCH_overload.json.
struct OverloadBenchOptions {
  int64_t entities = 30000;
  int64_t dim = 64;
  int64_t k = 10;
  /// Per-request deadline enforced by the queue.
  double deadline_ms = 50.0;
  int64_t max_pending = 256;
  int64_t max_batch = 64;
  double max_wait_ms = 0.5;
  /// Offered load per sweep point, as a multiple of measured capacity.
  std::vector<double> load_multipliers = {0.5, 1.0, 2.0, 4.0};
  /// Open-loop generation time per sweep point.
  double duration_s = 2.0;
  /// Submitting threads (the simulated client fleet). 0 = auto:
  /// min(4, hardware cores) — oversubscribing generators on a small
  /// machine starves the queue worker and distorts the open-loop
  /// arrival schedule into a burst loop.
  int submit_threads = 0;
  uint64_t seed = 20260808;
  /// CI mode: smaller table, shorter points.
  bool smoke = false;
};

/// One offered-load point.
struct OverloadBenchCase {
  double multiplier = 0.0;
  double offered_qps = 0.0;   ///< what the generators aimed for
  int64_t submitted = 0;
  int64_t admitted = 0;       ///< accepted past admission control
  int64_t ok = 0;             ///< resolved kOk (scored)
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t degraded = 0;       ///< kOk answers served below full quality
  double goodput_qps = 0.0;   ///< kOk completions per offered second
  double p50_ms = 0.0;        ///< latency of kOk requests
  double p99_ms = 0.0;
  int64_t max_rung = 0;       ///< deepest governor rung observed
  int64_t end_rung = 0;       ///< rung when generation stopped
};

/// The after-the-storm phase: sustained overload pushes the governor up
/// the ladder, then a gentle trickle must walk it back to healthy and a
/// probe query must match the unloaded brute-force answer bit for bit.
struct OverloadRecovery {
  int64_t from_rung = 0;        ///< rung reached under the storm
  bool reached_healthy = false;
  double recover_ms = 0.0;      ///< trickle time until rung 0
  bool bitexact = false;        ///< probe ids+scores == unloaded baseline
};

struct OverloadBenchReport {
  int64_t entities = 0;
  int64_t dim = 0;
  int64_t k = 0;
  double deadline_ms = 0.0;
  int64_t max_pending = 0;
  double capacity_qps = 0.0;  ///< closed-loop sustainable throughput
  std::vector<OverloadBenchCase> cases;
  OverloadRecovery recovery;
  /// Schema desalign.overload_bench.v1; validated by tools/ci.sh.
  std::string ToJson() const;
};

OverloadBenchReport RunOverloadBench(const OverloadBenchOptions& options);

}  // namespace desalign::bench

#endif  // DESALIGN_BENCH_OVERLOAD_BENCH_H_
