#!/usr/bin/env bash
# The benchmark's one command. Builds the binary into build-bench/ from
# this checkout's sources, then runs workloads through harness.py:
#
#   benchmark/run.sh                          every workload, seed 1
#   benchmark/run.sh --workload train --seed 3 --seconds 12 --trace 0
#   benchmark/run.sh --trace                  traced run of every workload
#   benchmark/run.sh --repeat=10              calibration over seeds 1..10
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

build=build-bench
jobs=$(nproc)
((jobs > 4)) && jobs=4
mkdir -p "$build"
# The root CMakeLists.txt stays untouched: the target is injected through
# the project() include hook (see project_include.cmake). Configuring an
# existing tree again takes well under a second.
if ! {
  cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_PROJECT_desalign_INCLUDE="$PWD/benchmark/project_include.cmake" &&
    cmake --build "$build" --target desalign_benchmark -j "$jobs"
} >"$build/build.log" 2>&1; then
  tail -n 20 "$build/build.log" >&2
  echo "benchmark: build failed; full log in $build/build.log" >&2
  exit 1
fi
exec python3 benchmark/harness.py "$@"
