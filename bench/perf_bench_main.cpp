#include <iostream>

#include "bench/perf_bench.h"

int main(int argc, char** argv) {
  return desalign::bench::RunPerfBench(argc, argv, std::cout);
}
