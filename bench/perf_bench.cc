#include "bench/perf_bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/kernel_bench.h"
#include "bench/overload_bench.h"
#include "bench/retrieval_bench.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table.h"

namespace desalign::bench {

namespace {

using common::FlagParser;
using common::Result;
using common::Status;

// The entries of list flag --`name`, as `parsed` from its text: a parse
// error names the flag, and the list must hold one or more entries, each
// positive and representable as Out.
template <typename Out, typename T>
Result<std::vector<Out>> PositiveList(const std::string& name,
                                      Result<std::vector<T>> parsed) {
  if (!parsed.ok()) {
    return Status::InvalidArgument("--" + name + ": " +
                                   parsed.status().message());
  }
  const std::vector<T>& v = parsed.value();
  if (v.empty() || *std::min_element(v.begin(), v.end()) <= 0 ||
      *std::max_element(v.begin(), v.end()) >
          std::numeric_limits<Out>::max()) {
    return Status::InvalidArgument("--" + name +
                                   " needs one or more positive entries");
  }
  return std::vector<Out>(v.begin(), v.end());
}

Status WriteReport(const std::string& path, const std::string& json) {
  std::ofstream file(path);
  file << json;
  file.close();
  if (!file) return Status::IoError("cannot write '" + path + "'");
  return Status::Ok();
}

// kernels: every tensor kernel against the serial scalar reference across
// a thread-count x ISA grid -> BENCH_kernels.json (docs/PERFORMANCE.md).
Status CmdKernels(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser(
      "perf_bench kernels: tensor kernel layer vs scalar reference");
  KernelBenchOptions options;
  std::string out_path;
  std::string threads_list;
  int64_t repeats;
  parser.AddString("out", "BENCH_kernels.json", "output JSON path",
                   &out_path);
  parser.AddString("threads-list", "1,2,4,8",
                   "comma-separated thread counts to sweep", &threads_list);
  parser.AddInt64("repeats", options.repeats,
                  "timing repeats per measurement (min wins)", &repeats);
  parser.AddBool("smoke", options.smoke, "tiny shapes for CI smoke runs",
                 &options.smoke);
  DESALIGN_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  if (repeats <= 0) {
    return Status::InvalidArgument("--repeats must be positive");
  }
  DESALIGN_ASSIGN_OR_RETURN(
      options.thread_counts,
      PositiveList<int>("threads-list", common::ParseInt64List(threads_list)));
  options.repeats = static_cast<int>(repeats);

  const auto report = RunKernelBench(options);
  DESALIGN_RETURN_NOT_OK(WriteReport(out_path, report.ToJson()));

  for (const auto& c : report.cases) {
    out << c.op << " " << c.rows << "x" << c.cols << ": ref "
        << common::FormatDouble(c.ref_ns_per_elem, 3) << " ns/elem, best "
        << common::FormatDouble(c.BestSpeedup(), 2) << "x\n";
  }
  out << "wrote " << out_path << " (" << report.cases.size() << " cases)\n";
  return Status::Ok();
}

// retrieval: brute force over fp32, bf16 and int8 and IVF at full and
// partial probe, against one fp32 truth per entity count ->
// BENCH_retrieval.json (gated by tools/ci.sh --index and --quant).
Status CmdRetrieval(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser(
      "perf_bench retrieval: brute force over fp32/bf16/int8 and the IVF "
      "index, against one fp32 truth per size");
  int64_t threads;
  common::AddThreadsFlag(parser, &threads);
  RetrievalBenchOptions options;
  std::string out_path;
  std::string entities_list;
  int64_t shards;
  parser.AddString("out", "BENCH_retrieval.json", "output JSON path",
                   &out_path);
  parser.AddString("entities-list", "10000,100000,1000000",
                   "comma-separated entity counts to sweep", &entities_list);
  parser.AddInt64("dim", options.dim, "embedding dimension", &options.dim);
  parser.AddInt64("queries", options.queries, "queries per case",
                  &options.queries);
  parser.AddInt64("k", options.k, "candidates per query", &options.k);
  parser.AddInt64("nprobe", options.nprobe, "partial-probe width",
                  &options.nprobe);
  parser.AddInt64("centroids", options.num_centroids,
                  "IVF coarse cells (0 = ~sqrt(n))", &options.num_centroids);
  parser.AddInt64("shards", options.num_shards, "IVF inverted-list shards",
                  &shards);
  parser.AddInt64("rerank", options.rerank_candidates,
                  "int8 stage-2 re-rank width (0 = auto, <0 = all rows)",
                  &options.rerank_candidates);
  parser.AddInt64("clusters", options.clusters,
                  "synthetic mixture components", &options.clusters);
  parser.AddDouble("noise", options.noise, "synthetic per-coordinate noise",
                   &options.noise);
  parser.AddBool("smoke", options.smoke,
                 "CI mode: smallest entity count only, fewer queries",
                 &options.smoke);
  DESALIGN_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  DESALIGN_RETURN_NOT_OK(common::ApplyThreadsFlag(threads));
  if (options.queries <= 0 || options.k <= 0) {
    return Status::InvalidArgument("--queries and --k must be positive");
  }
  DESALIGN_ASSIGN_OR_RETURN(
      options.entity_counts,
      PositiveList<int64_t>("entities-list",
                            common::ParseInt64List(entities_list)));
  options.num_shards = static_cast<int>(shards);

  const auto report = RunRetrievalBench(options);
  DESALIGN_RETURN_NOT_OK(WriteReport(out_path, report.ToJson()));

  for (const auto& c : report.cases) {
    out << c.entities << " entities (dim " << c.dim << ", k " << c.k
        << ", truth " << common::Secs(c.truth_ms / 1e3) << "; IVF "
        << c.num_centroids << " cells, " << c.shards << " shards, built "
        << common::Secs(c.build_ms / 1e3) << "):\n";
    for (const auto& p : c.paths) {
      out << "  " << p.path << ": " << p.table_bytes << " B ("
          << common::FormatDouble(p.memory_reduction, 2) << "x), batch "
          << common::FormatDouble(p.batch_ms, 1) << " ms, p50 "
          << common::FormatDouble(p.p50_ms, 3) << " ms, p99 "
          << common::FormatDouble(p.p99_ms, 3) << " ms, recall@" << c.k
          << " " << common::FormatDouble(p.recall_at_k, 4)
          << (p.path == "int8"
                  ? " (raw " + common::FormatDouble(p.recall_at_k_raw, 4) +
                        ")"
                  : "")
          << ", hits@1 " << common::FormatDouble(p.hits_at_1, 4)
          << (p.bitexact ? " (bit-exact)" : "")
          << (p.bitexact_full.value_or(false) ? " (exact mode bit-exact)"
                                              : "")
          << (p.refined_exact_matches_fp32.value_or(false)
                  ? " (refined == fp32)"
                  : "")
          << "\n";
    }
  }
  out << "wrote " << out_path << " (" << report.cases.size() << " cases)\n";
  return Status::Ok();
}

// overload: open-loop offered-QPS sweep past the serving queue's measured
// capacity -> BENCH_overload.json (gated by tools/ci.sh --overload).
Status CmdOverload(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser(
      "perf_bench overload: open-loop overload sweep of the serving queue — "
      "admission, deadlines, degradation ladder");
  int64_t threads;
  common::AddThreadsFlag(parser, &threads);
  OverloadBenchOptions options;
  std::string out_path;
  std::string multipliers;
  int64_t submit_threads;
  parser.AddString("out", "BENCH_overload.json", "output JSON path",
                   &out_path);
  parser.AddInt64("entities", options.entities, "synthetic table rows",
                  &options.entities);
  parser.AddInt64("dim", options.dim, "embedding dimension", &options.dim);
  parser.AddInt64("k", options.k, "candidates per query", &options.k);
  parser.AddDouble("deadline-ms", options.deadline_ms,
                   "per-request deadline", &options.deadline_ms);
  parser.AddInt64("max-pending", options.max_pending,
                  "admission bound on the queue", &options.max_pending);
  parser.AddDouble("duration-s", options.duration_s,
                   "open-loop seconds per load point", &options.duration_s);
  parser.AddString("multipliers", "0.5,1,2,4",
                   "offered load as multiples of measured capacity",
                   &multipliers);
  parser.AddInt64("submit-threads", options.submit_threads,
                  "submitting client threads (0 = auto: min(4, cores))",
                  &submit_threads);
  parser.AddBool("smoke", options.smoke,
                 "CI mode: small table, short points", &options.smoke);
  DESALIGN_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  DESALIGN_RETURN_NOT_OK(common::ApplyThreadsFlag(threads));
  if (options.entities <= 0 || options.dim <= 0 || options.k <= 0 ||
      options.max_pending <= 0 || submit_threads < 0 ||
      options.duration_s <= 0.0) {
    return Status::InvalidArgument(
        "--entities, --dim, --k, --max-pending and --duration-s must be "
        "positive (--submit-threads may be 0 = auto)");
  }
  DESALIGN_ASSIGN_OR_RETURN(
      options.load_multipliers,
      PositiveList<double>("multipliers",
                           common::ParseDoubleList(multipliers)));
  options.submit_threads = static_cast<int>(submit_threads);

  const auto report = RunOverloadBench(options);
  DESALIGN_RETURN_NOT_OK(WriteReport(out_path, report.ToJson()));

  out << "capacity " << common::FormatDouble(report.capacity_qps, 0)
      << " qps (" << report.entities << " entities, dim " << report.dim
      << ", deadline " << common::FormatDouble(report.deadline_ms, 0)
      << " ms)\n";
  for (const auto& c : report.cases) {
    out << "  x" << common::FormatDouble(c.multiplier, 2) << " offered "
        << common::FormatDouble(c.offered_qps, 0) << " qps, goodput "
        << common::FormatDouble(c.goodput_qps, 0) << " qps, ok " << c.ok
        << ", shed " << c.shed_queue_full << "/" << c.shed_deadline
        << ", p99 " << common::FormatDouble(c.p99_ms, 2) << " ms, rung "
        << c.max_rung << "->" << c.end_rung << "\n";
  }
  out << "recovery: rung " << report.recovery.from_rung << " -> "
      << (report.recovery.reached_healthy ? "healthy" : "NOT healthy")
      << " in " << common::FormatDouble(report.recovery.recover_ms, 0)
      << " ms, "
      << (report.recovery.bitexact ? "bit-exact" : "NOT bit-exact") << "\n";
  out << "wrote " << out_path << " (" << report.cases.size()
      << " load points)\n";
  return Status::Ok();
}

constexpr char kUsage[] =
    "usage: perf_bench <command> [flags]\n"
    "commands:\n"
    "  kernels    time tensor kernels vs the scalar reference, write "
    "BENCH_kernels.json\n"
    "  retrieval  sweep entity counts, brute force over fp32/bf16/int8 and "
    "IVF, write BENCH_retrieval.json\n"
    "  overload   open-loop overload sweep of the serving queue, write "
    "BENCH_overload.json\n"
    "run `perf_bench <command> --help` for command flags.\n";

}  // namespace

int RunPerfBench(int argc, const char* const* argv, std::ostream& out) {
  if (argc < 2) {
    out << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  Status status;
  if (command == "kernels") {
    status = CmdKernels(argc, argv, out);
  } else if (command == "retrieval") {
    status = CmdRetrieval(argc, argv, out);
  } else if (command == "overload") {
    status = CmdOverload(argc, argv, out);
  } else if (command == "--help" || command == "-h" || command == "help") {
    out << kUsage;
    return 0;
  } else {
    out << "unknown command '" << command << "'\n" << kUsage;
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace desalign::bench
