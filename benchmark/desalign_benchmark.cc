// Benchmark binary: runs one workload of BENCHMARK.json against the
// desalign libraries and prints its result as one JSON line on stdout.
//
//   desalign_benchmark --workload=train --seed=1 --seconds=12 --trace=0
//                      --scratch=build-bench/tmp/train
//
// benchmark/run.sh builds this binary and is the command users run; see
// benchmark/README.md for the workloads, the metrics and how to read them.
//
// It times calls into the libraries' public entry points from the
// outside. With --trace=1 it also records its own spans (workload, phase,
// call, plus one async span per serving request) and writes them as
// Chrome-trace JSON, and it reports the per-layer metrics: its own call
// spans, the library's obs span tree flattened into totals and self times,
// and registry counters. The harness compares a traced run against an
// untraced one of the same seed for the tracing overhead.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "align/metrics.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/desalign.h"
#include "index/ivf.h"
#include "kg/presets.h"
#include "kg/synthetic.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/batch_queue.h"
#include "serve/embedding_store.h"
#include "serve/row_source.h"
#include "serve/stats.h"
#include "serve/topk.h"
#include "tensor/kernels/dispatch.h"

namespace desalign {
namespace {

using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;

// ---------------------------------------------------------------------------
// Pinned workload configuration, echoed into every result. Sizes keep one
// run (set-ups, the measured window, the checks) near 15-20 s on 4 cores;
// README.md gives the reasoning per workload.
// ---------------------------------------------------------------------------

constexpr uint64_t kModelSeed = 7;  // --seed moves the data, not the model
constexpr int kSetups = 3;  // decode and serving; train sets up per Fit

constexpr int64_t kTrainEntities = 1500;
constexpr int kTrainEpochs = 5;
constexpr int kTrainPropagation = 2;
constexpr int kTrainThreads = 4;
constexpr int kCheckpointEvery = 5;
constexpr int kCheckpointKeep = 3;
constexpr int kTrainMinReps = 3;
constexpr double kTrainMinHitsAt1 = 0.2;

constexpr int64_t kDecodeEntities = 2000;
constexpr double kDecodeImageRatio = 0.3;
constexpr int kDecodeSetupEpochs = 2;
constexpr int kDecodePropagation = 8;
constexpr int kDecodeThreads = 4;
constexpr int kDecodeMinCalls = 5;
constexpr double kDecodeMinHitsAt1 = 0.01;

constexpr int64_t kServeRows = 20000;
constexpr int64_t kServeDim = 128;  // 4 modalities x dim 32
constexpr int64_t kServeClusters = 256;
constexpr float kServeNoise = 2.5f;
constexpr int64_t kQueryPool = 4096;
constexpr int64_t kRecallQueries = 1024;
constexpr int64_t kTopK = 10;
constexpr int kServeThreads = 2;
constexpr int64_t kIvfNprobe = 8;
constexpr int kIvfShards = 4;
constexpr double kDeadlineMs = 50.0;
constexpr int64_t kMaxBatch = 64;
constexpr double kMaxWaitMs = 1.0;
constexpr int64_t kMaxPending = 256;
constexpr double kReloadEveryS = 1.0;
constexpr int64_t kSampledAnswers = 64;
constexpr double kIvfMinRecall = 0.85;
constexpr double kInt8MinRecall = 0.99;
// A ladder step whose generator ran later than this at p99 is flagged.
constexpr double kMaxGenLateMs = 1.0;

// The open-loop ladder splits --seconds evenly over its steps. The traced
// run adds a closed-loop capacity probe of kProbeShare x --seconds that
// keeps kProbeBatches full batches queued. The first kWarmupShare of the
// probe and of every step is left out of its statistics.
constexpr double kProbeShare = 0.2;
constexpr int kProbeBatches = 8;
constexpr double kWarmupShare = 0.125;

struct Rung {
  const char* name;
  int units;
};
constexpr std::array<Rung, 5> kLadder = {
    {{"r1", 1}, {"r2", 2}, {"r3", 3}, {"r4", 4}, {"r8", 8}}};

enum WorkloadBit : unsigned {
  kTrain = 1,
  kDecode = 2,
  kServeIvf = 4,
  kServeInt8 = 8,
};
constexpr unsigned kModel = kTrain | kDecode;
constexpr unsigned kServe = kServeIvf | kServeInt8;
constexpr unsigned kAll = kModel | kServe;

struct WorkloadDef {
  const char* name;
  WorkloadBit bit;
  double rate_unit_qps;  // serving ladder: rN offers N x this rate
};
constexpr std::array<WorkloadDef, 4> kWorkloads = {{
    {"train", kTrain, 0.0},
    {"decode", kDecode, 0.0},
    {"serve-ivf", kServeIvf, 500.0},
    {"serve-int8-reload", kServeInt8, 200.0},
}};

// ---------------------------------------------------------------------------
// Every metric this binary may report, its unit, and the workloads whose
// code path it is on. A layer metric off a workload's path reads 0 there
// (it stays flat); one on the path must be measured.
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
  unsigned workloads;
  bool end_to_end;
};

std::vector<MetricDef> BuildMetricTable() {
  std::vector<MetricDef> t = {
      {"setup_s", "s", kAll, true},
      {"p50_ms", "ms", kAll, true},
      {"peak_rss_mb", "MB", kAll, true},

      {"kg.generate_s", "s", kModel, false},
      {"align.prepare_s", "s", kModel, false},
      {"align.fit_s", "s", kModel, false},
      {"align.decode_s", "s", kModel, false},
      {"align.metrics_s", "s", kModel, false},
      {"align.hits_at_1", "ratio", kModel, false},
      {"align.mrr", "ratio", kModel, false},
      {"span.train.epoch.forward_s", "s", kTrain, false},
      {"span.train.epoch.loss_s", "s", kTrain, false},
      {"span.train.epoch.loss_self_s", "s", kTrain, false},
      {"span.train.epoch.loss.extra.mmsl_s", "s", kTrain, false},
      {"span.train.epoch.backward_s", "s", kTrain, false},
      {"span.train.epoch.optimizer_s", "s", kTrain, false},
      {"span.train.epoch_self_s", "s", kTrain, false},
      {"span.decode_self_s", "s", kModel, false},
      {"span.decode.propagation_s", "s", kModel, false},
      {"span.decode.propagation_self_s", "s", kModel, false},
      {"span.decode.propagation.propagation_run_s", "s", kModel, false},
      {"propagation.iterations", "count", kModel, false},
      {"tensor.solver.fallback", "count", kModel, false},
      {"tensor.solver.cache_hit", "count", kModel, false},
      {"tensor.pool.hit_rate", "ratio", kModel, false},
      {"tensor.parallel_speedup", "ratio", kModel, false},
      {"nn.checkpoint_write_ms.p50", "ms", kTrain, false},
      {"nn.checkpoint_writes", "count", kTrain, false},
      {"proc.cpu_util.setup", "ratio", kAll, false},
      {"proc.cpu_util.run", "ratio", kAll, false},

      {"client.generate_s", "s", kServe, false},
      {"serve.store_save_s", "s", kServe, false},
      {"serve.store_load_s", "s", kServe, false},
      {"serve.quantize_s", "s", kServeInt8, false},
      {"serve.row_source_open_s", "s", kServeInt8, false},
      {"index.build_s", "s", kServeIvf, false},
      {"serve.retrieve_b1_ms.p50", "ms", kServe, false},
      {"serve.retrieve_b64_ms.p50", "ms", kServe, false},
      {"serve.reload_ms.p50", "ms", kServeInt8, false},
      {"serve.reload_ms.max", "ms", kServeInt8, false},
      {"serve.reloads_failed", "count", kServeInt8, false},
      {"serve.recall_at_10", "ratio", kServe, false},
      {"index.candidates_per_query.mean", "count", kServeIvf, false},
      {"index.probes", "count", kServeIvf, false},
      {"quant.int8_queries", "count", kServeInt8, false},
      {"quant.rerank_candidates.mean", "count", kServeInt8, false},
      {"quant.rerank_source_errors", "count", kServeInt8, false},
      {"client.capacity_qps", "qps", kServe, false},
      {"client.slo_rate_qps", "qps", kServe, false},
      {"client.goodput_qps.r8", "qps", kServe, false},
      {"client.failed_share", "ratio", kServe, false},
      {"trace.span_coverage", "ratio", kAll, false},
  };
  const std::array<std::pair<const char*, const char*>, 12> per_step = {{
      {"serve.batch_size.mean", "count"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.latency_ms.p99", "ms"},
      {"serve.shed_queue_full", "count"},
      {"serve.shed_deadline", "count"},
      {"serve.degraded", "count"},
      {"serve.max_rung", "count"},
      {"client.p50_ms", "ms"},
      {"client.p99_ms", "ms"},
      {"client.late", "count"},
      {"client.gen_late_ms.p99", "ms"},
      {"client.gen_late_ms.max", "ms"},
  }};
  for (const auto& [name, unit] : per_step) {
    for (const Rung& rung : kLadder) {
      t.push_back({std::string(name) + "." + rung.name, unit, kServe, false});
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double Seconds(TimePoint from, TimePoint to) {
  return std::chrono::duration<double>(to - from).count();
}

double Millis(TimePoint from, TimePoint to) {
  return Seconds(from, to) * 1e3;
}

TimePoint After(TimePoint t, double seconds) {
  return t + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

template <typename T>
int64_t Count(const std::vector<T>& v) {
  return static_cast<int64_t>(v.size());
}

/// CPU seconds (user + system) this process has used so far.
double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Shortest round-trip decimal form: every digit as measured.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::array<char, 64> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::array<char, 8> esc{};
      std::snprintf(esc.data(), esc.size(), "\\u%04x", c);
      out += esc.data();
    } else {
      out += c;
    }
  }
  return out + "\"";
}

uint32_t TensorCrc(const tensor::Tensor& t) {
  return common::Crc32(t.data().data(), t.data().size() * sizeof(float));
}

std::string Hex(uint32_t v) {
  std::array<char, 16> buf{};
  std::snprintf(buf.data(), buf.size(), "%08x", v);
  return buf.data();
}

/// Wall and CPU time summed over the blocks of one phase kind, for the
/// proc.cpu_util.* metrics.
class PhaseClock {
 public:
  void Begin() {
    wall_start_ = SteadyClock::now();
    cpu_start_ = CpuSeconds();
  }
  /// Ends the block; returns its wall seconds.
  double End() {
    const double wall = Seconds(wall_start_, SteadyClock::now());
    wall_ += wall;
    cpu_ += CpuSeconds() - cpu_start_;
    return wall;
  }
  double Utilization() const { return wall_ > 0.0 ? cpu_ / wall_ : 0.0; }

 private:
  TimePoint wall_start_;
  double cpu_start_ = 0.0;
  double wall_ = 0.0;
  double cpu_ = 0.0;
};

/// Sums registry counter deltas over the measured blocks only, so set-up
/// work (feature building, a set-up Fit) never leaks into layer counts.
class CounterDeltas {
 public:
  void Begin() { start_ = Counters(); }
  void End() {
    for (const auto& [name, value] : Counters()) {
      const auto it = start_.find(name);
      totals_[name] += value - (it == start_.end() ? 0 : it->second);
    }
  }
  double operator[](const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : static_cast<double>(it->second);
  }

 private:
  static std::map<std::string, int64_t> Counters() {
    return obs::MetricsRegistry::Global().Collect().counters;
  }

  std::map<std::string, int64_t> start_;
  std::map<std::string, int64_t> totals_;
};

// ---------------------------------------------------------------------------
// Benchmark spans, kept in memory and written as Chrome-trace JSON at exit.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(SteadyClock::now()) {}

  bool enabled() const { return enabled_; }

  /// A main-thread span [start, end); spans nest by time.
  void Span(std::string name, TimePoint start, TimePoint end) {
    if (!enabled_) return;
    common::MutexLock lock(mutex_);
    spans_.push_back({std::move(name), start, end});
  }

  /// One serving request: due, submitted, resolved, sharing `id`.
  void Request(int64_t id, const char* step, TimePoint due,
               TimePoint submitted, TimePoint resolved,
               serve::ServeStatus status) {
    if (!enabled_) return;
    common::MutexLock lock(mutex_);
    requests_.push_back({id, step, due, submitted, resolved, status});
  }

  /// Durations of every span named `name`, in seconds.
  std::vector<double> Durations(const std::string& name) const {
    common::MutexLock lock(mutex_);
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(Seconds(s.start, s.end));
    }
    return out;
  }

  /// Self time per span name: duration minus the part its direct children
  /// cover. Main-thread spans nest properly, so the self times of all
  /// spans sum to the duration of the roots.
  std::map<std::string, double> SelfSeconds() const {
    common::MutexLock lock(mutex_);
    std::vector<const SpanEvent*> order;
    for (const auto& s : spans_) order.push_back(&s);
    std::sort(order.begin(), order.end(),
              [](const SpanEvent* a, const SpanEvent* b) {
                return a->start != b->start ? a->start < b->start
                                            : a->end > b->end;
              });
    std::map<std::string, double> self;
    std::vector<const SpanEvent*> stack;
    for (const SpanEvent* s : order) {
      while (!stack.empty() && stack.back()->end <= s->start) {
        stack.pop_back();
      }
      const double d = Seconds(s->start, s->end);
      self[s->name] += d;
      if (!stack.empty()) self[stack.back()->name] -= d;
      stack.push_back(s);
    }
    return self;
  }

  void WriteChromeTrace(const std::string& path) const {
    common::MutexLock lock(mutex_);
    std::ofstream out(path);
    const auto us = [&](TimePoint t) {
      return JsonNumber(
          std::chrono::duration<double, std::micro>(t - origin_).count());
    };
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        << R"({"ph":"M","name":"thread_name","pid":1,"tid":1,)"
        << R"("args":{"name":"benchmark"}},)"
        << R"({"ph":"M","name":"thread_name","pid":1,"tid":2,)"
        << R"("args":{"name":"requests"}})";
    for (const auto& s : spans_) {
      out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":"
          << JsonString(s.name) << ",\"ts\":" << us(s.start)
          << ",\"dur\":"
          << JsonNumber(std::chrono::duration<double, std::micro>(
                            s.end - s.start)
                            .count())
          << "}";
    }
    for (const auto& r : requests_) {
      const std::string head =
          ",\n{\"cat\":\"request\",\"name\":\"request\",\"pid\":1,"
          "\"tid\":2,\"id\":" +
          std::to_string(r.id);
      out << head << ",\"ph\":\"b\",\"ts\":" << us(r.due)
          << ",\"args\":{\"step\":\"" << r.step << "\"}}";
      out << head << ",\"ph\":\"n\",\"ts\":" << us(r.submitted)
          << ",\"args\":{\"event\":\"submitted\"}}";
      out << head << ",\"ph\":\"e\",\"ts\":" << us(r.resolved)
          << ",\"args\":{\"status\":\"" << serve::ServeStatusName(r.status)
          << "\"}}";
    }
    out << "\n]}\n";
  }

 private:
  struct SpanEvent {
    std::string name;
    TimePoint start;
    TimePoint end;
  };
  struct RequestEvent {
    int64_t id;
    const char* step;
    TimePoint due;
    TimePoint submitted;
    TimePoint resolved;
    serve::ServeStatus status;
  };

  const bool enabled_;
  const TimePoint origin_;
  mutable common::Mutex mutex_;
  std::vector<SpanEvent> spans_ GUARDED_BY(mutex_);
  std::vector<RequestEvent> requests_ GUARDED_BY(mutex_);
};

/// RAII main-thread span around one call into a layer, or a phase.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), name_(std::move(name)), start_(SteadyClock::now()) {}
  ~Span() { tracer_.Span(std::move(name_), start_, SteadyClock::now()); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::string name_;
  TimePoint start_;
};

// ---------------------------------------------------------------------------
// Result of one workload run.
// ---------------------------------------------------------------------------

class Report {
 public:
  Report(const WorkloadDef& workload, bool trace)
      : workload_(workload), trace_(trace), table_(BuildMetricTable()) {}

  const WorkloadDef& workload() const { return workload_; }
  bool trace() const { return trace_; }

  /// Records a metric. `samples` >= 0 marks it a statistic over that many
  /// samples (a median, a percentile, a maximum).
  void Set(const std::string& name, double value, int64_t samples = -1) {
    const MetricDef* def = Find(name);
    if (def == nullptr || (def->workloads & workload_.bit) == 0) {
      Fail("benchmark bug: metric " + name + " is not declared for " +
           workload_.name);
      return;
    }
    values_[name] = {value, samples};
  }

  /// Per-layer metrics exist only in the traced run.
  void SetLayer(const std::string& name, double value,
                int64_t samples = -1) {
    if (trace_) Set(name, value, samples);
  }

  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(why);
  }
  /// A false check is one failed operation.
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  int64_t failed() const { return failed_; }

  void Info(const std::string& key, const std::string& json_value) {
    info_[key] = json_value;
  }

  std::string ToJson() {
    for (const MetricDef& def : table_) {
      if ((!def.end_to_end && !trace_) || values_.count(def.name) != 0) {
        continue;
      }
      if ((def.workloads & workload_.bit) != 0) {
        Fail("metric " + def.name + " was not measured");
      } else {
        values_[def.name] = {0.0, -1};
      }
    }
    std::ostringstream os;
    os << "{\"workload\":" << JsonString(workload_.name)
       << ",\"correct\":" << (failed_ == 0 ? "true" : "false")
       << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
       << ",\"failures\":[";
    for (size_t i = 0; i < failures_.size(); ++i) {
      os << (i ? "," : "") << JsonString(failures_[i]);
    }
    os << "],\"metrics\":{";
    const char* sep = "";
    for (const MetricDef& def : table_) {
      const auto it = values_.find(def.name);
      if (it == values_.end()) continue;
      os << sep << JsonString(def.name)
         << ":{\"value\":" << JsonNumber(it->second.value)
         << ",\"unit\":" << JsonString(def.unit);
      if (it->second.samples >= 0) {
        os << ",\"samples\":" << it->second.samples;
      }
      os << "}";
      sep = ",";
    }
    os << "},\"info\":{";
    sep = "";
    for (const auto& [key, value] : info_) {
      os << sep << JsonString(key) << ":" << value;
      sep = ",";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Value {
    double value;
    int64_t samples;
  };

  const MetricDef* Find(const std::string& name) const {
    for (const MetricDef& def : table_) {
      if (def.name == name) return &def;
    }
    return nullptr;
  }

  const WorkloadDef& workload_;
  const bool trace_;
  const std::vector<MetricDef> table_;
  std::map<std::string, Value> values_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

struct Context {
  uint64_t seed = 1;
  double seconds = 12.0;
  std::filesystem::path scratch;
  Tracer* tracer = nullptr;
  Report* report = nullptr;
  PhaseClock setup_clock;  // every set-up block
  PhaseClock run_clock;    // every measured block
};

/// Reports each call span's median duration per call as `<name>_s`.
void ReportCallSpans(Context& ctx, const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    const std::vector<double> d = ctx.tracer->Durations(name);
    ctx.report->SetLayer(name + "_s", Median(d), Count(d));
  }
}

// ---------------------------------------------------------------------------
// Library span tree -> span.<path>_s totals and self times, per unit of
// work: per Fit below `train`, per DecodeSimilarity below `decode`.
// ---------------------------------------------------------------------------

void FlattenSpans(const obs::SpanNodeSnapshot& node, const std::string& prefix,
                  double per, std::map<std::string, double>* out) {
  const std::string path =
      prefix.empty() ? node.name : prefix + "." + node.name;
  double children = 0.0;
  for (const auto& child : node.children) {
    children += child.total_seconds;
    FlattenSpans(child, path, per, out);
  }
  (*out)["span." + path + "_s"] += node.total_seconds / per;
  (*out)["span." + path + "_self_s"] += (node.total_seconds - children) / per;
}

void ReportSpanMetrics(Context& ctx, const obs::RunReport& run,
                       const std::vector<std::string>& names) {
  std::map<std::string, double> spans;
  for (const auto& root : run.spans()) {
    const auto per = static_cast<double>(std::max<int64_t>(root.count, 1));
    FlattenSpans(root, "", per, &spans);
  }
  for (const std::string& name : names) {
    const auto it = spans.find(name);
    ctx.report->SetLayer(name, it == spans.end() ? 0.0 : it->second);
  }
}

// ---------------------------------------------------------------------------
// train and decode: the paper's model.
// ---------------------------------------------------------------------------

core::DesalignConfig ModelConfig(int epochs, int propagation) {
  core::DesalignConfig cfg = core::DesalignConfig::Default(kModelSeed);
  cfg.base.dim = 32;
  cfg.base.epochs = epochs;
  cfg.propagation_iterations = propagation;
  return cfg;
}

kg::SyntheticSpec TrainSpec(uint64_t seed) {
  kg::SyntheticSpec spec = kg::PresetFbDb15k();
  spec.num_entities = kTrainEntities;
  spec.seed = seed;
  return spec;
}

kg::SyntheticSpec DecodeSpec(uint64_t seed) {
  kg::SyntheticSpec spec = kg::PresetDbp15k(kg::Dbp15kLang::kZhEn);
  spec.num_entities = kDecodeEntities;
  spec.image_ratio = kDecodeImageRatio;
  spec.seed = seed;
  return spec;
}

struct Decoded {
  uint32_t crc = 0;
  align::RankingMetrics metrics;
  bool finite = true;
};

/// One timed DecodeSimilarity (its seconds appended to `decode_s` when
/// given) and the ranking metrics of its similarity matrix.
Decoded DecodeAndScore(Context& ctx, core::DesalignModel& model,
                       const kg::AlignedKgPair& data,
                       std::vector<double>* decode_s) {
  Decoded out;
  tensor::TensorPtr sim;
  {
    Span span(*ctx.tracer, "align.decode");
    const TimePoint t0 = SteadyClock::now();
    sim = model.DecodeSimilarity(data);
    if (decode_s != nullptr) {
      decode_s->push_back(Seconds(t0, SteadyClock::now()));
    }
  }
  {
    Span span(*ctx.tracer, "align.metrics");
    out.metrics = align::MetricsFromSimilarity(*sim);
  }
  out.crc = TensorCrc(*sim);
  for (float v : sim->data()) out.finite = out.finite && std::isfinite(v);
  return out;
}

void ReportModelLayers(Context& ctx, const obs::RunReport& run,
                       const CounterDeltas& counters, double units,
                       const Decoded& decoded) {
  Report& report = *ctx.report;
  ReportSpanMetrics(ctx, run,
                    {"span.decode_self_s", "span.decode.propagation_s",
                     "span.decode.propagation_self_s",
                     "span.decode.propagation.propagation_run_s"});
  for (const char* name : {"propagation.iterations", "tensor.solver.fallback",
                           "tensor.solver.cache_hit"}) {
    report.SetLayer(name, counters[name] / units);
  }
  const double hits = counters["tensor.pool.hit"];
  const double misses = counters["tensor.pool.miss"];
  report.SetLayer("tensor.pool.hit_rate",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report.SetLayer("align.hits_at_1", decoded.metrics.h_at_1);
  report.SetLayer("align.mrr", decoded.metrics.mrr);
  ReportCallSpans(ctx, {"kg.generate", "align.prepare", "align.fit",
                        "align.decode", "align.metrics"});
}

void RecordQuality(Report& report, const Decoded& decoded) {
  report.Info("similarity_crc", "\"" + Hex(decoded.crc) + "\"");
  report.Info("hits_at_1", JsonNumber(decoded.metrics.h_at_1));
  report.Info("test_pairs", std::to_string(decoded.metrics.num_queries));
}

void CheckSameBits(Report& report, const char* what, const Decoded& got,
                   const Decoded& first) {
  report.Check(got.finite, std::string(what) + ": non-finite similarity");
  report.Check(got.crc == first.crc, std::string(what) + ": similarity CRC " +
                                         Hex(got.crc) + " != " +
                                         Hex(first.crc));
}

void RunTrain(Context& ctx) {
  Report& report = *ctx.report;
  common::ThreadPool::SetGlobalThreadCount(kTrainThreads);
  const kg::SyntheticSpec spec = TrainSpec(ctx.seed);
  const std::filesystem::path ckpt_dir = ctx.scratch / "checkpoints";

  std::vector<double> setup_s;
  std::vector<double> fit_s;
  std::vector<double> rep_s;
  CounterDeltas counters;
  Decoded first;
  const TimePoint start = SteadyClock::now();
  // One repetition = set-up (generate + Warmup), then the timed Fit and
  // one decode. Repetitions continue while another fits in --seconds.
  while (Count(rep_s) < kTrainMinReps ||
         Seconds(start, SteadyClock::now()) + Median(rep_s) <= ctx.seconds) {
    const TimePoint rep_start = SteadyClock::now();
    kg::AlignedKgPair data;
    std::optional<core::DesalignModel> model;
    {
      Span span(*ctx.tracer, "setup");
      ctx.setup_clock.Begin();
      std::filesystem::remove_all(ckpt_dir);
      {
        Span call(*ctx.tracer, "kg.generate");
        data = kg::GenerateSyntheticPair(spec);
      }
      model.emplace(ModelConfig(kTrainEpochs, kTrainPropagation));
      model->ConfigureCheckpointing(ckpt_dir.string(), kCheckpointEvery,
                                    kCheckpointKeep, /*resume=*/false);
      {
        Span call(*ctx.tracer, "align.prepare");
        model->Warmup(data);
      }
      setup_s.push_back(ctx.setup_clock.End());
    }
    Decoded decoded;
    {
      Span span(*ctx.tracer, "measure");
      ctx.run_clock.Begin();
      counters.Begin();
      {
        Span call(*ctx.tracer, "align.fit");
        const TimePoint t0 = SteadyClock::now();
        model->Fit(data);
        fit_s.push_back(Seconds(t0, SteadyClock::now()));
      }
      decoded = DecodeAndScore(ctx, *model, data, nullptr);
      counters.End();
      ctx.run_clock.End();
    }
    report.Attempt();
    if (rep_s.empty()) first = decoded;
    CheckSameBits(report, "train", decoded, first);
    report.Check(decoded.metrics.h_at_1 >= kTrainMinHitsAt1,
                 "train: Hits@1 " + std::to_string(decoded.metrics.h_at_1) +
                     " below floor");
    rep_s.push_back(Seconds(rep_start, SteadyClock::now()));
  }
  report.Set("setup_s", Median(setup_s), Count(setup_s));
  report.Set("p50_ms", Median(fit_s) * 1e3, Count(fit_s));
  report.Set("peak_rss_mb", PeakRssMb());
  RecordQuality(report, first);
  if (!report.trace()) return;

  const obs::RunReport run = obs::RunReport::Collect();
  const auto reps = static_cast<double>(fit_s.size());
  ReportModelLayers(ctx, run, counters, reps, first);
  ReportSpanMetrics(
      ctx, run,
      {"span.train.epoch.forward_s", "span.train.epoch.loss_s",
       "span.train.epoch.loss_self_s", "span.train.epoch.loss.extra.mmsl_s",
       "span.train.epoch.backward_s", "span.train.epoch.optimizer_s",
       "span.train.epoch_self_s"});
  const auto& histograms = run.metrics().histograms;
  if (const auto it = histograms.find("checkpoint.write_ms");
      it != histograms.end()) {
    report.SetLayer("nn.checkpoint_write_ms.p50", it->second.p50,
                    it->second.count);
    report.SetLayer("nn.checkpoint_writes",
                    static_cast<double>(it->second.count) / reps);
  }

  // The same Fit on one thread: the pool's speedup, and the determinism
  // contract (same bits at any thread count).
  Span span(*ctx.tracer, "check");
  common::ThreadPool::SetGlobalThreadCount(1);
  std::filesystem::remove_all(ckpt_dir);
  const kg::AlignedKgPair data = kg::GenerateSyntheticPair(spec);
  core::DesalignModel model(ModelConfig(kTrainEpochs, kTrainPropagation));
  model.ConfigureCheckpointing(ckpt_dir.string(), kCheckpointEvery,
                               kCheckpointKeep, /*resume=*/false);
  model.Warmup(data);
  double single = 0.0;
  {
    Span call(*ctx.tracer, "align.fit_1thread");
    const TimePoint t0 = SteadyClock::now();
    model.Fit(data);
    single = Seconds(t0, SteadyClock::now());
  }
  const Decoded decoded = DecodeAndScore(ctx, model, data, nullptr);
  common::ThreadPool::SetGlobalThreadCount(kTrainThreads);
  report.Attempt();
  CheckSameBits(report, "train on 1 thread", decoded, first);
  report.SetLayer("tensor.parallel_speedup", single / Median(fit_s));
}

void RunDecode(Context& ctx) {
  Report& report = *ctx.report;
  common::ThreadPool::SetGlobalThreadCount(kDecodeThreads);
  const kg::SyntheticSpec spec = DecodeSpec(ctx.seed);

  std::vector<double> setup_s;
  kg::AlignedKgPair data;
  std::unique_ptr<core::DesalignModel> model;
  for (int i = 0; i < kSetups; ++i) {
    model.reset();
    Span span(*ctx.tracer, "setup");
    ctx.setup_clock.Begin();
    {
      Span call(*ctx.tracer, "kg.generate");
      data = kg::GenerateSyntheticPair(spec);
    }
    model = std::make_unique<core::DesalignModel>(
        ModelConfig(kDecodeSetupEpochs, kDecodePropagation));
    {
      Span call(*ctx.tracer, "align.prepare");
      model->Warmup(data);
    }
    {
      Span call(*ctx.tracer, "align.fit");
      model->Fit(data);
    }
    setup_s.push_back(ctx.setup_clock.End());
  }
  // Only the decodes below belong to the measured window.
  obs::ResetSpanTree();

  std::vector<double> decode_s;
  CounterDeltas counters;
  Decoded first;
  {
    Span span(*ctx.tracer, "measure");
    ctx.run_clock.Begin();
    counters.Begin();
    const TimePoint start = SteadyClock::now();
    while (Count(decode_s) < kDecodeMinCalls ||
           Seconds(start, SteadyClock::now()) + Median(decode_s) <=
               ctx.seconds) {
      const Decoded decoded = DecodeAndScore(ctx, *model, data, &decode_s);
      report.Attempt();
      if (decode_s.size() == 1) first = decoded;
      CheckSameBits(report, "decode", decoded, first);
    }
    counters.End();
    ctx.run_clock.End();
  }
  report.Check(first.metrics.h_at_1 >= kDecodeMinHitsAt1,
               "decode: Hits@1 " + std::to_string(first.metrics.h_at_1) +
                   " below floor");
  report.Set("setup_s", Median(setup_s), Count(setup_s));
  report.Set("p50_ms", Median(decode_s) * 1e3, Count(decode_s));
  report.Set("peak_rss_mb", PeakRssMb());
  RecordQuality(report, first);
  if (!report.trace()) return;

  ReportModelLayers(ctx, obs::RunReport::Collect(), counters,
                    static_cast<double>(decode_s.size()), first);

  Span span(*ctx.tracer, "check");
  common::ThreadPool::SetGlobalThreadCount(1);
  std::vector<double> single;
  const Decoded decoded = DecodeAndScore(ctx, *model, data, &single);
  common::ThreadPool::SetGlobalThreadCount(kDecodeThreads);
  report.Attempt();
  CheckSameBits(report, "decode on 1 thread", decoded, first);
  report.SetLayer("tensor.parallel_speedup",
                  single.front() / Median(decode_s));
}

// ---------------------------------------------------------------------------
// serve-ivf and serve-int8-reload: the retrieval stack under load.
// ---------------------------------------------------------------------------

/// Clustered rows: a mixture around Gaussian centres with uniform noise,
/// so neighbourhoods (and IVF cells) have structure.
std::vector<float> MixtureRows(common::Rng& rng,
                               const std::vector<float>& centers,
                               int64_t n) {
  std::vector<float> rows(static_cast<size_t>(n * kServeDim));
  for (int64_t i = 0; i < n; ++i) {
    const float* center =
        centers.data() + rng.UniformInt(kServeClusters) * kServeDim;
    float* row = rows.data() + i * kServeDim;
    for (int64_t j = 0; j < kServeDim; ++j) {
      row[j] = center[j] + rng.UniformF(-kServeNoise, kServeNoise);
    }
  }
  return rows;
}

/// Everything one serving set-up builds. Heap-held so the retriever's
/// pointers into the store and row source stay valid.
struct ServeState {
  std::vector<float> queries;  // kQueryPool x kServeDim, raw
  serve::EmbeddingStore store;  // the served table, fp32 or int8
  serve::CheckpointRowSource row_source;  // int8 only
  std::unique_ptr<serve::Retriever> retriever;
  std::string fp32_path;
  std::string int8_path;
};

std::unique_ptr<ServeState> BuildServe(Context& ctx, bool int8) {
  auto st = std::make_unique<ServeState>();
  st->fp32_path = (ctx.scratch / "table_fp32.ckpt").string();
  st->int8_path = (ctx.scratch / "table_int8.ckpt").string();
  std::vector<float> rows;
  {
    Span call(*ctx.tracer, "client.generate");
    common::Rng rng(ctx.seed);
    std::vector<float> centers(
        static_cast<size_t>(kServeClusters * kServeDim));
    for (float& c : centers) c = static_cast<float>(rng.Normal());
    rows = MixtureRows(rng, centers, kServeRows);
    st->queries = MixtureRows(rng, centers, kQueryPool);
  }
  serve::EmbeddingStore built;
  {
    Span call(*ctx.tracer, "serve.store_save");
    built = serve::EmbeddingStore::FromRows(kServeRows, kServeDim,
                                            std::move(rows));
    DESALIGN_CHECK_MSG(built.Save(st->fp32_path).ok(),
                       "saving the fp32 table failed");
  }
  if (int8) {
    Span call(*ctx.tracer, "serve.quantize");
    auto quantized = built.Quantize(nn::TensorDtype::kInt8);
    DESALIGN_CHECK_MSG(quantized.ok(), "quantizing the table failed");
    DESALIGN_CHECK_MSG(quantized.value().Save(st->int8_path).ok(),
                       "saving the int8 table failed");
  }
  built = serve::EmbeddingStore();
  {
    Span call(*ctx.tracer, "serve.store_load");
    auto loaded =
        serve::EmbeddingStore::Load(int8 ? st->int8_path : st->fp32_path);
    DESALIGN_CHECK_MSG(loaded.ok(), "loading the served table failed");
    st->store = std::move(loaded).value();
  }
  if (int8) {
    {
      Span call(*ctx.tracer, "serve.row_source_open");
      auto source = serve::CheckpointRowSource::Open(st->fp32_path);
      DESALIGN_CHECK_MSG(source.ok(), "opening the fp32 row source failed");
      st->row_source = std::move(source).value();
    }
    serve::TopKOptions options;
    options.rerank_source = &st->row_source;
    st->retriever =
        std::make_unique<serve::TopKRetriever>(&st->store, options);
  } else {
    Span call(*ctx.tracer, "index.build");
    index::IvfOptions options;
    options.nprobe = kIvfNprobe;
    options.num_shards = kIvfShards;
    st->retriever = std::make_unique<index::IvfRetriever>(&st->store, options);
  }
  return st;
}

std::vector<float> PoolQuery(const ServeState& st, int64_t i) {
  const float* row = st.queries.data() + (i % kQueryPool) * kServeDim;
  return std::vector<float>(row, row + kServeDim);
}

bool SameAnswer(const serve::TopKResult& a, const serve::TopKResult& b) {
  return a.status == b.status && a.ids == b.ids &&
         a.scores.size() == b.scores.size() &&
         std::memcmp(a.scores.data(), b.scores.data(),
                     a.scores.size() * sizeof(float)) == 0;
}

serve::BatchQueueOptions QueueOptions() {
  serve::BatchQueueOptions options;
  options.max_batch = kMaxBatch;
  options.max_wait_ms = kMaxWaitMs;
  options.k = kTopK;
  options.max_pending = kMaxPending;
  options.deadline_ms = kDeadlineMs;
  options.overload.enabled = true;
  return options;
}

/// Closed loop: one client keeps kProbeBatches full batches outstanding
/// on a queue with no deadline, bound or governor, so the worker always
/// finds a full batch waiting and never waits on the client. When the
/// oldest batch has resolved the client resubmits it; by Little's law the
/// capacity is the requests in flight over that cycle time, and the
/// median cycle keeps a host stall from moving the number.
double CapacityProbe(Context& ctx, const ServeState& st, double seconds) {
  Span span(*ctx.tracer, "client.capacity_probe");
  serve::BatchQueueOptions options = QueueOptions();
  options.max_pending = 0;
  options.deadline_ms = 0.0;
  options.overload.enabled = false;
  serve::BatchQueue queue(st.retriever.get(), options);
  struct Batch {
    TimePoint submitted;
    std::vector<std::future<serve::TopKResult>> futures;
  };
  int64_t next = 0;
  const auto submit = [&] {
    Batch batch{SteadyClock::now(), {}};
    for (int64_t i = 0; i < kMaxBatch; ++i) {
      batch.futures.push_back(queue.Submit(PoolQuery(st, next++)));
    }
    return batch;
  };
  int64_t not_ok = 0;
  const auto resolve = [&](Batch& batch) {
    for (auto& f : batch.futures) {
      if (f.get().status != serve::ServeStatus::kOk) ++not_ok;
    }
  };
  std::deque<Batch> inflight;
  for (int b = 0; b < kProbeBatches; ++b) inflight.push_back(submit());
  const TimePoint start = SteadyClock::now();
  const TimePoint counted_from = After(start, seconds * kWarmupShare);
  const TimePoint end = After(start, seconds);
  std::vector<double> cycles;
  for (TimePoint now = start; now < end;) {
    Batch oldest = std::move(inflight.front());
    inflight.pop_front();
    resolve(oldest);
    now = SteadyClock::now();
    if (oldest.submitted >= counted_from) {
      cycles.push_back(Seconds(oldest.submitted, now));
    }
    inflight.push_back(submit());
  }
  for (Batch& batch : inflight) resolve(batch);
  ctx.report->Attempt(next);
  for (int64_t i = 0; i < not_ok; ++i) {
    ctx.report->Fail("capacity probe: request not answered kOk");
  }
  return static_cast<double>(kProbeBatches * kMaxBatch) / Median(cycles);
}

/// Calls EmbeddingStore::Reload on the served int8 table every
/// kReloadEveryS while the ladder runs; records each reload's duration.
class Reloader {
 public:
  Reloader(serve::EmbeddingStore* store, std::string path)
      : store_(store), path_(std::move(path)), thread_([this] { Loop(); }) {}
  ~Reloader() { Stop(); }

  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  void Stop() {
    {
      common::MutexLock lock(mutex_);
      stop_ = true;
    }
    wake_.NotifyAll();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const std::vector<double>& reload_ms() const { return reload_ms_; }
  int64_t failed() const { return failed_; }

 private:
  void Loop() {
    TimePoint due = SteadyClock::now();
    while (true) {
      due = After(due, kReloadEveryS);
      {
        common::MutexLock lock(mutex_);
        while (!stop_ && SteadyClock::now() < due) wake_.WaitUntil(lock, due);
        if (stop_) return;
      }
      const TimePoint t0 = SteadyClock::now();
      const bool ok = store_->Reload(path_).ok();
      reload_ms_.push_back(Millis(t0, SteadyClock::now()));
      if (!ok) ++failed_;
    }
  }

  serve::EmbeddingStore* store_;
  const std::string path_;
  std::vector<double> reload_ms_;  // reloader thread until joined
  int64_t failed_ = 0;             // reloader thread until joined
  common::Mutex mutex_;
  common::CondVar wake_;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::thread thread_;  // last: starts after the members it uses
};

struct StepResult {
  double offered_qps = 0.0;
  std::vector<double> latency_ms;   // due -> answer, counted, kOk only
  std::vector<double> gen_late_ms;  // due -> submit, counted
  int64_t in_time = 0;
  int64_t late = 0;
  int64_t not_ok = 0;
  int64_t counted = 0;  // requests due after the warm-up
  double counted_seconds = 0.0;
  serve::ServeStatsSnapshot stats;
  int max_rung = 0;
};

struct InFlight {
  int64_t id = 0;
  TimePoint due;
  TimePoint submitted;
  std::future<serve::TopKResult> future;
};

/// One open-loop ladder step: the calling thread submits on a fixed
/// schedule, a collector thread resolves futures in order. Latency runs
/// from each request's due time, so generator stalls count.
StepResult RunStep(
    Context& ctx, const ServeState& st, const Rung& rung, double qps,
    double seconds, int64_t first_id,
    std::vector<std::pair<int64_t, serve::TopKResult>>* sampled) {
  Span span(*ctx.tracer, std::string("client.step.") + rung.name);
  StepResult out;
  out.offered_qps = qps;
  serve::ServeStats stats;
  serve::BatchQueue queue(st.retriever.get(), QueueOptions(), &stats);

  common::Mutex mutex;
  common::CondVar ready;
  std::deque<InFlight> pending;  // guarded by mutex
  bool done = false;             // guarded by mutex
  const TimePoint start = SteadyClock::now();
  const TimePoint counted_from = After(start, seconds * kWarmupShare);
  std::thread collector([&] {
    while (true) {
      InFlight req;
      {
        common::MutexLock lock(mutex);
        while (pending.empty() && !done) ready.Wait(lock);
        if (pending.empty()) return;
        req = std::move(pending.front());
        pending.pop_front();
      }
      const serve::TopKResult result = req.future.get();
      const TimePoint resolved = SteadyClock::now();
      ctx.tracer->Request(req.id, rung.name, req.due, req.submitted,
                          resolved, result.status);
      if (sampled != nullptr && Count(*sampled) < kSampledAnswers) {
        sampled->emplace_back(req.id, result);
      }
      const bool ok = result.status == serve::ServeStatus::kOk;
      if (!ok) ++out.not_ok;
      if (req.due < counted_from) continue;
      ++out.counted;
      out.gen_late_ms.push_back(Millis(req.due, req.submitted));
      if (!ok) continue;
      const double ms = Millis(req.due, resolved);
      out.latency_ms.push_back(ms);
      if (ms <= kDeadlineMs) {
        ++out.in_time;
      } else {
        ++out.late;
      }
    }
  });

  int64_t submitted = 0;
  for (;; ++submitted) {
    const TimePoint due = After(start, static_cast<double>(submitted) / qps);
    if (Seconds(start, due) >= seconds) break;
    std::this_thread::sleep_until(due);
    const int64_t id = first_id + submitted;
    auto future = queue.Submit(PoolQuery(st, id));
    const TimePoint at = SteadyClock::now();
    out.max_rung = std::max(out.max_rung, queue.health_rung());
    {
      common::MutexLock lock(mutex);
      pending.push_back({id, due, at, std::move(future)});
    }
    ready.NotifyOne();
  }
  {
    common::MutexLock lock(mutex);
    done = true;
  }
  ready.NotifyOne();
  collector.join();
  queue.Shutdown();
  out.counted_seconds = Seconds(counted_from, After(start, seconds));
  out.stats = stats.Snapshot();

  Report& report = *ctx.report;
  const std::string step = std::string("step ") + rung.name;
  report.Attempt(submitted);
  for (int64_t i = 0; i < out.not_ok; ++i) {
    report.Fail(step + ": request not answered kOk");
  }
  const int64_t accounted =
      out.stats.admitted + out.stats.shed_queue_full +
      out.stats.rejected_invalid + out.stats.rejected_shutdown;
  report.Check(accounted == submitted,
               step + ": admitted + shed " + std::to_string(accounted) +
                   " != submitted " + std::to_string(submitted));
  return out;
}

/// Exact fp32 top-k of the first kRecallQueries pool queries.
std::vector<serve::TopKResult> ExactReference(const ServeState& st,
                                              bool int8) {
  serve::EmbeddingStore fp32;
  const serve::EmbeddingStore* table = &st.store;
  if (int8) {
    auto loaded = serve::EmbeddingStore::Load(st.fp32_path);
    DESALIGN_CHECK_MSG(loaded.ok(), "reloading the fp32 table failed");
    fp32 = std::move(loaded).value();
    table = &fp32;
  }
  const serve::TopKRetriever exact(table);
  return exact.Retrieve(st.queries.data(), kRecallQueries, kTopK);
}

double RecallAt10(const std::vector<serve::TopKResult>& got,
                  const std::vector<serve::TopKResult>& exact) {
  int64_t hits = 0;
  int64_t total = 0;
  for (size_t q = 0; q < exact.size(); ++q) {
    const std::set<int64_t> truth(exact[q].ids.begin(), exact[q].ids.end());
    for (int64_t id : got[q].ids) hits += truth.count(id);
    total += static_cast<int64_t>(exact[q].ids.size());
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

/// Back-to-back direct Retrieve calls of `batch` queries, no queue: the
/// scan's busy time per call, in milliseconds.
std::vector<double> DirectRetrieveMs(const ServeState& st, int64_t batch,
                                     int calls) {
  std::vector<double> ms;
  for (int c = 0; c < calls; ++c) {
    std::vector<float> queries;
    for (int64_t i = 0; i < batch; ++i) {
      const std::vector<float> q = PoolQuery(st, c * batch + i);
      queries.insert(queries.end(), q.begin(), q.end());
    }
    const TimePoint t0 = SteadyClock::now();
    const auto results = st.retriever->Retrieve(queries.data(), batch, kTopK);
    ms.push_back(Millis(t0, SteadyClock::now()));
  }
  return ms;
}

double HistogramMean(const obs::RunReport& run, const std::string& name) {
  const auto& all = run.metrics().histograms;
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : it->second.mean;
}

double CounterValue(const obs::RunReport& run, const std::string& name) {
  const auto& all = run.metrics().counters;
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : static_cast<double>(it->second);
}

/// Per-step queue and client metrics, and the SLO summaries over the
/// ladder.
void ReportLadder(Report& report, const std::vector<StepResult>& steps) {
  double slo_rate = 0.0;
  int64_t counted = 0;
  int64_t missed = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepResult& s = steps[i];
    const auto set = [&](const char* name, double value,
                         int64_t samples = -1) {
      report.SetLayer(std::string(name) + "." + kLadder[i].name, value,
                      samples);
    };
    const double p99 = Quantile(s.latency_ms, 0.99);
    set("client.p50_ms", Median(s.latency_ms), Count(s.latency_ms));
    set("client.p99_ms", p99, Count(s.latency_ms));
    set("client.late", static_cast<double>(s.late));
    set("client.gen_late_ms.p99", Quantile(s.gen_late_ms, 0.99),
        Count(s.gen_late_ms));
    set("client.gen_late_ms.max", Quantile(s.gen_late_ms, 1.0),
        Count(s.gen_late_ms));
    set("serve.batch_size.mean", s.stats.mean_batch_size);
    set("serve.queue_wait_ms.p99", s.stats.p99_queue_wait_ms,
        s.stats.queries);
    set("serve.latency_ms.p99", s.stats.p99_latency_ms, s.stats.queries);
    set("serve.shed_queue_full", static_cast<double>(s.stats.shed_queue_full));
    set("serve.shed_deadline", static_cast<double>(s.stats.shed_deadline));
    set("serve.degraded", static_cast<double>(s.stats.degraded));
    set("serve.max_rung", static_cast<double>(s.max_rung));
    const bool meets_slo = s.counted > 0 && p99 <= kDeadlineMs &&
                           100 * s.in_time >= 99 * s.counted;
    if (meets_slo) slo_rate = std::max(slo_rate, s.offered_qps);
    counted += s.counted;
    missed += s.counted - s.in_time;
  }
  report.SetLayer("client.slo_rate_qps", slo_rate);
  const StepResult& top = steps.back();
  report.SetLayer("client.goodput_qps.r8",
                  static_cast<double>(top.in_time) / top.counted_seconds);
  report.SetLayer("client.failed_share",
                  counted > 0 ? static_cast<double>(missed) /
                                    static_cast<double>(counted)
                              : 0.0);
}

void RunServe(Context& ctx, bool int8) {
  Report& report = *ctx.report;
  common::ThreadPool::SetGlobalThreadCount(kServeThreads);

  std::vector<double> setup_s;
  std::unique_ptr<ServeState> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();  // free the previous set-up first: peak RSS is one set-up
    Span span(*ctx.tracer, "setup");
    ctx.setup_clock.Begin();
    st = BuildServe(ctx, int8);
    setup_s.push_back(ctx.setup_clock.End());
  }
  obs::MetricsRegistry::Global().ResetAll();

  std::vector<StepResult> steps;
  std::vector<std::pair<int64_t, serve::TopKResult>> sampled;
  std::optional<Reloader> reloader;
  {
    Span span(*ctx.tracer, "measure");
    ctx.run_clock.Begin();
    if (int8) reloader.emplace(&st->store, st->int8_path);
    const double step_seconds = ctx.seconds / kLadder.size();
    int64_t next_id = 0;
    for (const Rung& rung : kLadder) {
      steps.push_back(RunStep(ctx, *st, rung,
                              rung.units * report.workload().rate_unit_qps,
                              step_seconds, next_id,
                              rung.units == 1 ? &sampled : nullptr));
      next_id += 1 << 20;
    }
    if (reloader) reloader->Stop();
    ctx.run_clock.End();
  }
  report.Set("setup_s", Median(setup_s), Count(setup_s));
  report.Set("p50_ms", Median(steps.front().latency_ms),
             Count(steps.front().latency_ms));
  report.Set("peak_rss_mb", PeakRssMb());

  Span span(*ctx.tracer, "check");
  // Queue answers at r1 must equal direct Retrieve answers bit for bit.
  for (const auto& [id, answer] : sampled) {
    const std::vector<float> q = PoolQuery(*st, id);
    const auto direct = st->retriever->Retrieve(q.data(), 1, kTopK);
    report.Attempt();
    report.Check(SameAnswer(answer, direct.front()),
                 "r1: queue answer for request " + std::to_string(id) +
                     " differs from Retrieve");
  }
  report.Check(Count(sampled) == kSampledAnswers,
               "r1: too few sampled answers");
  if (reloader) {
    report.Attempt(Count(reloader->reload_ms()));
    for (int64_t i = 0; i < reloader->failed(); ++i) {
      report.Fail("reload failed");
    }
  }
  double recall = 0.0;
  {
    Span call(*ctx.tracer, "check.recall");
    recall = RecallAt10(
        st->retriever->Retrieve(st->queries.data(), kRecallQueries, kTopK),
        ExactReference(*st, int8));
  }
  report.Check(recall >= (int8 ? kInt8MinRecall : kIvfMinRecall),
               "recall@10 " + std::to_string(recall) + " below floor");
  report.Info("recall_at_10", JsonNumber(recall));
  for (size_t i = 0; i < steps.size(); ++i) {
    if (Quantile(steps[i].gen_late_ms, 0.99) > kMaxGenLateMs) {
      report.Info(std::string("invalid_step_") + kLadder[i].name,
                  "\"generator p99 lateness above 1 ms\"");
    }
  }
  if (!report.trace()) return;

  // The registry was reset after set-up: its counts cover the ladder and
  // the checks above, as ratios per query.
  const obs::RunReport run = obs::RunReport::Collect();
  report.SetLayer("serve.recall_at_10", recall);
  ReportCallSpans(ctx,
                  {"client.generate", "serve.store_save", "serve.store_load"});
  if (int8) {
    ReportCallSpans(ctx, {"serve.quantize", "serve.row_source_open"});
    const std::vector<double>& ms = reloader->reload_ms();
    report.SetLayer("serve.reload_ms.p50", Median(ms), Count(ms));
    report.SetLayer("serve.reload_ms.max", Quantile(ms, 1.0), Count(ms));
    report.SetLayer("serve.reloads_failed",
                    static_cast<double>(reloader->failed()));
    for (const char* name :
         {"quant.int8_queries", "quant.rerank_source_errors"}) {
      report.SetLayer(name, CounterValue(run, name));
    }
    report.SetLayer("quant.rerank_candidates.mean",
                    HistogramMean(run, "quant.rerank_candidates"));
  } else {
    ReportCallSpans(ctx, {"index.build"});
    const double queries = CounterValue(run, "index.queries");
    report.SetLayer("index.candidates_per_query.mean",
                    HistogramMean(run, "index.candidates_per_query"));
    report.SetLayer("index.probes",
                    queries > 0 ? CounterValue(run, "index.probes") / queries
                                : 0.0);
  }
  ReportLadder(report, steps);
  {
    Span call(*ctx.tracer, "serve.direct_retrieve");
    const std::vector<double> b1 = DirectRetrieveMs(*st, 1, 200);
    const std::vector<double> b64 = DirectRetrieveMs(*st, kMaxBatch, 20);
    report.SetLayer("serve.retrieve_b1_ms.p50", Median(b1), Count(b1));
    report.SetLayer("serve.retrieve_b64_ms.p50", Median(b64), Count(b64));
  }
  report.SetLayer("client.capacity_qps",
                  CapacityProbe(ctx, *st, ctx.seconds * kProbeShare));
}

// ---------------------------------------------------------------------------

std::string ConfigEcho(const WorkloadDef& w) {
  std::ostringstream os;
  os << "{\"model_seed\":" << kModelSeed;
  switch (w.bit) {
    case kTrain:
      os << ",\"preset\":\"FBDB15K\",\"entities\":" << kTrainEntities
         << ",\"dim\":32,\"epochs\":" << kTrainEpochs
         << ",\"propagation_iterations\":" << kTrainPropagation
         << ",\"checkpoint_every\":" << kCheckpointEvery
         << ",\"checkpoint_keep\":" << kCheckpointKeep
         << ",\"pool_threads\":" << kTrainThreads;
      break;
    case kDecode:
      os << ",\"preset\":\"DBP15K-ZH-EN\",\"entities\":" << kDecodeEntities
         << ",\"image_ratio\":" << kDecodeImageRatio
         << ",\"setup_epochs\":" << kDecodeSetupEpochs
         << ",\"propagation_iterations\":" << kDecodePropagation
         << ",\"pool_threads\":" << kDecodeThreads
         << ",\"setups\":" << kSetups;
      break;
    case kServeIvf:
    case kServeInt8: {
      const bool ivf = w.bit == kServeIvf;
      os << ",\"rows\":" << kServeRows << ",\"dim\":" << kServeDim
         << ",\"clusters\":" << kServeClusters << ",\"table\":\""
         << (ivf ? "fp32" : "int8") << "\",\"retriever\":\""
         << (ivf ? "ivf nprobe 8, 4 shards"
                 : "brute force + fp32 checkpoint refinement")
         << "\",\"max_batch\":" << kMaxBatch
         << ",\"max_wait_ms\":" << kMaxWaitMs
         << ",\"deadline_ms\":" << kDeadlineMs
         << ",\"max_pending\":" << kMaxPending
         << ",\"governor\":true,\"pool_threads\":" << kServeThreads
         << ",\"client_threads\":" << (ivf ? 2 : 3)
         << ",\"rate_unit_qps\":" << w.rate_unit_qps
         << ",\"reload_every_s\":" << (ivf ? 0.0 : kReloadEveryS)
         << ",\"setups\":" << kSetups;
      break;
    }
  }
  os << "}";
  return os.str();
}

int Main(int argc, char** argv) {
  const TimePoint process_start = SteadyClock::now();
  std::string workload_name;
  std::string scratch;
  std::string trace_out;
  int64_t seed = 1;
  double seconds = 12.0;
  int64_t trace = 0;
  common::FlagParser flags("desalign_benchmark: run one benchmark workload");
  flags.AddString("workload", "",
                  "train, decode, serve-ivf or serve-int8-reload",
                  &workload_name);
  flags.AddInt64("seed", 1, "dataset / table seed", &seed);
  flags.AddDouble("seconds", 12.0, "length of the measured window",
                  &seconds);
  flags.AddInt64("trace", 0, "1 = record spans, report per-layer metrics",
                 &trace);
  flags.AddString("scratch", "",
                  "directory for temporary files (created, then removed)",
                  &scratch);
  flags.AddString("trace-out", "",
                  "Chrome-trace JSON path written with --trace=1",
                  &trace_out);
  if (const auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage();
    return 2;
  }
  const auto def = std::find_if(
      kWorkloads.begin(), kWorkloads.end(),
      [&](const WorkloadDef& w) { return workload_name == w.name; });
  if (def == kWorkloads.end() || seed < 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1) || scratch.empty()) {
    std::cerr << "invalid arguments\n" << flags.Usage();
    return 2;
  }
  common::SetLogLevel(common::LogLevel::kWarning);
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  Tracer tracer(trace == 1);
  Report report(*def, trace == 1);
  Context ctx;
  ctx.seed = static_cast<uint64_t>(seed);
  ctx.seconds = seconds;
  ctx.scratch = scratch;
  ctx.tracer = &tracer;
  ctx.report = &report;
  obs::ResetSpanTree();
  {
    Span root(tracer, std::string("workload.") + def->name);
    switch (def->bit) {
      case kTrain:
        RunTrain(ctx);
        break;
      case kDecode:
        RunDecode(ctx);
        break;
      case kServeIvf:
        RunServe(ctx, /*int8=*/false);
        break;
      case kServeInt8:
        RunServe(ctx, /*int8=*/true);
        break;
    }
  }
  const double wall = Seconds(process_start, SteadyClock::now());
  report.SetLayer("proc.cpu_util.setup", ctx.setup_clock.Utilization());
  report.SetLayer("proc.cpu_util.run", ctx.run_clock.Utilization());
  if (tracer.enabled()) {
    double covered = 0.0;
    std::string self = "{";
    for (const auto& [name, s] : tracer.SelfSeconds()) {
      self += (self.size() > 1 ? "," : "") + JsonString(name) + ":" +
              JsonNumber(s);
      covered += s;
    }
    report.Info("span_self_s", self + "}");
    report.Info("wall_s", JsonNumber(wall));
    report.SetLayer("trace.span_coverage", covered / wall);
    report.Check(std::abs(covered / wall - 1.0) <= 0.05,
                 "spans cover " + std::to_string(covered / wall) +
                     " of the wall time");
    if (!trace_out.empty()) tracer.WriteChromeTrace(trace_out);
  }
  report.Info("seed", std::to_string(seed));
  report.Info("seconds", JsonNumber(seconds));
  report.Info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.Info("isa", JsonString(tensor::kernels::IsaName(
                         tensor::kernels::ActiveIsa())));
  report.Info("config", ConfigEcho(*def));
  std::filesystem::remove_all(scratch);
  std::cout << report.ToJson() << std::endl;
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace desalign

int main(int argc, char** argv) { return desalign::Main(argc, argv); }
