// Kernel regression benchmark: sweeps the tensor kernel layer (elementwise,
// GEMM, rowwise, sparse) over a thread-count x ISA grid and reports each
// variant's ns/element plus its speedup against the serial scalar reference
// (kernels/reference.cc — the pre-kernel-layer op loops). Writes
// BENCH_kernels.json (schema "desalign.kernel_bench.v3"); see
// docs/PERFORMANCE.md for how to read the output.
//
//   ./kernel_bench [--out=BENCH_kernels.json] [--threads-list=1,2,4,8]
//                  [--repeats=5] [--smoke]

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "tensor/kernels/kernel_bench.h"

using namespace desalign;

int main(int argc, char** argv) {
  common::FlagParser parser(
      "kernel_bench: tensor kernel layer vs serial scalar reference");
  std::string out_path, threads_list;
  int64_t repeats;
  bool smoke;
  parser.AddString("out", "BENCH_kernels.json", "output JSON path", &out_path);
  parser.AddString("threads-list", "1,2,4,8",
                   "comma-separated thread counts to sweep", &threads_list);
  parser.AddInt64("repeats", 5, "timing repeats per measurement (min wins)",
                  &repeats);
  parser.AddBool("smoke", false, "tiny shapes for CI smoke runs", &smoke);
  auto status = parser.Parse(argc, argv);
  if (!status.ok()) {
    if (status.code() != common::StatusCode::kFailedPrecondition) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    return 0;  // --help
  }

  tensor::kernels::KernelBenchOptions options;
  options.thread_counts.clear();
  for (const auto& tok : common::Split(threads_list, ',')) {
    const std::string trimmed(common::Trim(tok));
    if (trimmed.empty()) continue;
    options.thread_counts.push_back(std::atoi(trimmed.c_str()));
  }
  if (options.thread_counts.empty()) options.thread_counts = {1};
  options.repeats = static_cast<int>(repeats);
  options.smoke = smoke;

  auto report = tensor::kernels::RunKernelBench(options);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << report.ToJson();
  out.close();

  std::printf("%-20s %10s %10s  best\n", "op", "shape", "ref ns/el");
  for (const auto& c : report.cases) {
    char shape[32];
    std::snprintf(shape, sizeof(shape), "%ldx%ld", static_cast<long>(c.rows),
                  static_cast<long>(c.cols));
    std::printf("%-20s %10s %10.3f  %.2fx\n", c.op.c_str(), shape,
                c.ref_ns_per_elem, c.BestSpeedup());
  }
  std::printf("wrote %s (%zu cases)\n", out_path.c_str(),
              report.cases.size());
  return 0;
}
