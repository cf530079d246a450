#ifndef DESALIGN_TENSOR_KERNELS_KERNEL_BENCH_H_
#define DESALIGN_TENSOR_KERNELS_KERNEL_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

// Kernel regression benchmark: times every major kernel against the serial
// scalar reference (kernels/reference.cc, the pre-kernel-layer op loops)
// across a thread-count x ISA grid and emits a machine-readable report
// (BENCH_kernels.json, schema "desalign.kernel_bench.v3"). tools/ci.sh
// runs the smoke configuration and asserts the vector path does not regress
// below the reference; docs/PERFORMANCE.md explains how to read the output.

namespace desalign::tensor::kernels {

struct KernelBenchOptions {
  /// Thread counts to sweep; the global pool is resized per measurement and
  /// restored afterwards.
  std::vector<int> thread_counts = {1, 2, 4, 8};
  /// Timing repeats per measurement (minimum is reported; one untimed
  /// warm-up run precedes them).
  int repeats = 5;
  /// Shrinks every shape so the full grid finishes in a couple of seconds;
  /// used by the CI smoke step.
  bool smoke = false;
};

struct KernelBenchVariant {
  int threads = 1;
  std::string isa;          // "scalar" or "avx2"
  double ns_per_elem = 0.0;
  double speedup = 0.0;     // ref_ns_per_elem / ns_per_elem
};

struct KernelBenchCase {
  std::string op;
  int64_t rows = 0;
  int64_t cols = 0;
  double ref_ns_per_elem = 0.0;  // serial scalar reference, 1 thread
  std::vector<KernelBenchVariant> variants;

  /// Largest speedup across the measured variants.
  double BestSpeedup() const;
};

struct KernelBenchReport {
  std::vector<KernelBenchCase> cases;

  std::string ToJson() const;
};

/// Runs the full grid. Temporarily resizes ThreadPool::Global() and forces
/// the kernel ISA level per measurement; both are restored on return.
KernelBenchReport RunKernelBench(const KernelBenchOptions& options);

}  // namespace desalign::tensor::kernels

#endif  // DESALIGN_TENSOR_KERNELS_KERNEL_BENCH_H_
