#include "bench/overload_bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/perf_bench.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serve/batch_queue.h"
#include "serve/embedding_store.h"
#include "serve/topk.h"

namespace desalign::bench {

namespace {

using SteadyClock = std::chrono::steady_clock;
using serve::BatchQueue;
using serve::BatchQueueOptions;
using serve::TopKResult;

std::vector<float> QueryAt(const std::vector<float>& pool, int64_t dim,
                           int64_t i, int64_t pool_size) {
  const float* row = pool.data() + (i % pool_size) * dim;
  return std::vector<float>(row, row + dim);
}

/// Closed-loop burst capacity probe: each submitter keeps a full batch
/// in flight (submit max_batch, wait for all, repeat), so the worker
/// always drains full batches and the measured rate converges to the
/// retriever's true batched scan throughput — what "capacity" must mean
/// for an open-loop sweep to actually exceed it.
double MeasureCapacity(const serve::Retriever& retriever,
                       const BatchQueueOptions& queue_options,
                       const std::vector<float>& pool, int64_t dim,
                       int64_t pool_size, int threads, double seconds) {
  BatchQueueOptions opts = queue_options;
  opts.deadline_ms = 0.0;  // raw capacity: nothing shed
  opts.max_pending = 0;
  opts.overload.enabled = false;
  BatchQueue queue(&retriever, opts);
  std::atomic<int64_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  const int64_t burst = std::max<int64_t>(opts.max_batch, 1);
  const SteadyClock::time_point start = SteadyClock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      int64_t i = t;
      std::vector<std::future<TopKResult>> inflight;
      inflight.reserve(static_cast<size_t>(burst));
      while (!stop.load(std::memory_order_relaxed)) {
        inflight.clear();
        for (int64_t j = 0; j < burst; ++j) {
          inflight.push_back(
              queue.Submit(QueryAt(pool, dim, i + j * threads, pool_size)));
        }
        for (auto& f : inflight) f.get();
        completed.fetch_add(burst, std::memory_order_relaxed);
        i += burst * threads;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  return elapsed > 0.0 ? static_cast<double>(completed.load()) / elapsed : 0.0;
}

/// Open-loop generation: each thread submits on a fixed arrival schedule,
/// catching up with a burst when it falls behind, and never waits for
/// results — offered load is independent of how the queue is coping.
/// Returns the number submitted. Futures are dropped on the floor; every
/// promise is still fulfilled by the queue (drain on shutdown), which is
/// exactly the "client went away" shape of real overload.
int64_t OfferLoad(BatchQueue& queue, const std::vector<float>& pool,
                  int64_t dim, int64_t pool_size, double total_qps,
                  double seconds, int threads, std::atomic<int>* max_rung) {
  std::atomic<int64_t> submitted{0};
  std::atomic<int> active{threads};
  std::vector<std::thread> workers;
  const double per_thread_qps = total_qps / threads;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const SteadyClock::time_point start = SteadyClock::now();
      const auto interval =
          std::chrono::duration_cast<SteadyClock::duration>(
              std::chrono::duration<double>(1.0 / per_thread_qps));
      const auto total = std::chrono::duration_cast<SteadyClock::duration>(
          std::chrono::duration<double>(seconds));
      int64_t i = 0;
      while (true) {
        const SteadyClock::time_point arrival = start + i * interval;
        if (arrival - start >= total) break;
        if (arrival > SteadyClock::now()) std::this_thread::sleep_until(arrival);
        // Open-loop generator: outcomes are read from the stats registry,
        // not per-query futures, so the future is discarded deliberately.
        (void)queue.Submit(QueryAt(pool, dim, i * threads + t, pool_size));
        submitted.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
      active.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  // The main thread doubles as the rung sampler while generators run.
  while (active.load(std::memory_order_relaxed) > 0) {
    if (max_rung != nullptr) {
      const int rung = queue.health_rung();
      int seen = max_rung->load(std::memory_order_relaxed);
      while (rung > seen &&
             !max_rung->compare_exchange_weak(seen, rung,
                                              std::memory_order_relaxed)) {
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& w : workers) w.join();
  return submitted.load();
}

}  // namespace

std::string OverloadBenchReport::ToJson() const {
  std::ostringstream os;
  os << "{\"schema\":\"desalign.overload_bench.v1\",\"entities\":" << entities
     << ",\"dim\":" << dim << ",\"k\":" << k
     << ",\"deadline_ms\":" << JsonNum(deadline_ms)
     << ",\"max_pending\":" << max_pending
     << ",\"capacity_qps\":" << JsonNum(capacity_qps) << ",\"cases\":[";
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    if (i) os << ",";
    os << "{\"multiplier\":" << JsonNum(c.multiplier)
       << ",\"offered_qps\":" << JsonNum(c.offered_qps)
       << ",\"submitted\":" << c.submitted << ",\"admitted\":" << c.admitted
       << ",\"ok\":" << c.ok << ",\"shed_queue_full\":" << c.shed_queue_full
       << ",\"shed_deadline\":" << c.shed_deadline
       << ",\"degraded\":" << c.degraded
       << ",\"goodput_qps\":" << JsonNum(c.goodput_qps)
       << ",\"p50_ms\":" << JsonNum(c.p50_ms)
       << ",\"p99_ms\":" << JsonNum(c.p99_ms) << ",\"max_rung\":" << c.max_rung
       << ",\"end_rung\":" << c.end_rung << "}";
  }
  os << "],\"recovery\":{\"from_rung\":" << recovery.from_rung
     << ",\"reached_healthy\":" << JsonBool(recovery.reached_healthy)
     << ",\"recover_ms\":" << JsonNum(recovery.recover_ms)
     << ",\"bitexact\":" << JsonBool(recovery.bitexact) << "}}";
  return os.str();
}

OverloadBenchReport RunOverloadBench(const OverloadBenchOptions& options) {
  OverloadBenchOptions opt = options;
  if (opt.smoke) {
    opt.entities = std::min<int64_t>(opt.entities, 8000);
    opt.duration_s = std::min(opt.duration_s, 0.5);
    opt.load_multipliers = {0.5, 1.0, 2.0};
  }
  opt.entities = std::max<int64_t>(opt.entities, 64);
  opt.dim = std::max<int64_t>(opt.dim, 4);
  int threads = opt.submit_threads;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = static_cast<int>(std::min(4u, std::max(1u, hw)));
  }

  // Clustered rows, as in the other benches: uniform noise would have no
  // neighbourhood structure and make latency the only meaningful number.
  common::Rng rng(opt.seed);
  const int64_t clusters = std::min<int64_t>(256, opt.entities);
  const std::vector<float> centers = UnitCenters(rng, clusters, opt.dim);
  serve::EmbeddingStore store = serve::EmbeddingStore::FromRows(
      opt.entities, opt.dim,
      MixtureRows(rng, centers, clusters, opt.entities, opt.dim, 0.25));
  const int64_t pool_size = 1024;
  const std::vector<float> queries =
      MixtureRows(rng, centers, clusters, pool_size, opt.dim, 0.25);

  // One scan thread: the point is an easily-saturated retriever, so the
  // client fleet can actually push the queue past capacity.
  common::ThreadPool scan_pool(1);
  serve::TopKOptions topk;
  topk.pool = &scan_pool;
  obs::MetricsRegistry quant_registry;
  topk.registry = &quant_registry;
  serve::TopKRetriever retriever(&store, topk);

  OverloadBenchReport report;
  report.entities = opt.entities;
  report.dim = opt.dim;
  report.k = opt.k;
  report.deadline_ms = opt.deadline_ms;
  report.max_pending = opt.max_pending;

  BatchQueueOptions base;
  base.max_batch = opt.max_batch;
  base.max_wait_ms = opt.max_wait_ms;
  base.k = opt.k;
  base.max_pending = opt.max_pending;
  base.deadline_ms = opt.deadline_ms;
  base.overload.enabled = true;
  base.overload.sample_window_ms = 20.0;
  base.overload.recover_hold_ms = 100.0;

  report.capacity_qps =
      MeasureCapacity(retriever, base, queries, opt.dim, pool_size, threads,
                      opt.smoke ? 0.25 : 0.5);
  DESALIGN_CHECK_GT(report.capacity_qps, 0.0);

  // Size the admission bound to the deadline: backlog deeper than one
  // deadline's worth of drain only admits requests that are already
  // doomed (admitted, then shed in queue), which depresses goodput
  // without serving anyone. Cap max_pending at the depth the measured
  // capacity drains within deadline_ms, but never below one batch.
  if (opt.deadline_ms > 0.0) {
    const int64_t drainable = static_cast<int64_t>(
        report.capacity_qps * opt.deadline_ms / 1000.0);
    base.max_pending = std::max<int64_t>(
        opt.max_batch, std::min<int64_t>(base.max_pending, drainable));
    report.max_pending = base.max_pending;
  }

  for (const double multiplier : opt.load_multipliers) {
    obs::MetricsRegistry registry;
    serve::ServeStats stats(&registry);
    BatchQueue queue(&retriever, base, &stats);
    std::atomic<int> max_rung{0};
    const double offered = multiplier * report.capacity_qps;
    OverloadBenchCase c;
    c.multiplier = multiplier;
    c.offered_qps = offered;
    c.submitted = OfferLoad(queue, queries, opt.dim, pool_size, offered,
                            opt.duration_s, threads, &max_rung);
    c.end_rung = queue.health_rung();
    queue.Shutdown();  // drain; every future resolves before we read stats
    const serve::ServeStatsSnapshot snap = stats.Snapshot();
    c.admitted = snap.admitted;
    c.ok = snap.queries;
    c.shed_queue_full = snap.shed_queue_full;
    c.shed_deadline = snap.shed_deadline;
    c.degraded = snap.degraded;
    c.goodput_qps = opt.duration_s > 0.0
                        ? static_cast<double>(c.ok) / opt.duration_s
                        : 0.0;
    c.p50_ms = snap.p50_latency_ms;
    c.p99_ms = snap.p99_latency_ms;
    c.max_rung = std::max<int64_t>(max_rung.load(), c.end_rung);
    report.cases.push_back(c);
  }

  // Recovery: storm the queue up the ladder, then trickle light load (the
  // governor only samples at batch formation) until it reports healthy,
  // and prove the first full-quality answer is bit-identical to the
  // unloaded brute-force baseline.
  {
    obs::MetricsRegistry registry;
    serve::ServeStats stats(&registry);
    BatchQueue queue(&retriever, base, &stats);
    OfferLoad(queue, queries, opt.dim, pool_size, 4.0 * report.capacity_qps,
              opt.smoke ? 0.3 : 0.8, threads, nullptr);
    report.recovery.from_rung = queue.health_rung();
    const SteadyClock::time_point start = SteadyClock::now();
    const auto timeout = std::chrono::duration<double>(5.0);
    while (queue.health_rung() > 0 &&
           SteadyClock::now() - start < timeout) {
      queue.Submit(QueryAt(queries, opt.dim, 0, pool_size)).get();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    report.recovery.reached_healthy = queue.health_rung() == 0;
    report.recovery.recover_ms =
        std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
            .count();
    const std::vector<float> probe = QueryAt(queries, opt.dim, 7, pool_size);
    const TopKResult via_queue = queue.Submit(probe).get();
    const std::vector<TopKResult> direct =
        retriever.Retrieve(probe.data(), 1, opt.k);
    report.recovery.bitexact =
        via_queue.status == serve::ServeStatus::kOk &&
        via_queue.degradation == serve::DegradationLevel::kNone &&
        SameAnswer(via_queue, direct[0]);
  }
  return report;
}

}  // namespace desalign::bench
