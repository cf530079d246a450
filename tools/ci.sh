#!/usr/bin/env bash
# CI entry point: the tier-1 gate plus the static-analysis, sanitizer and
# fault gates.
#
#   tools/ci.sh            # full: lint, then tier-1 build + all tests +
#                          # `perf_bench kernels` smoke, then UBSan, then
#                          # ASan faults, then TSan suite
#   tools/ci.sh lint       # static analysis only: desalign-lint + its
#                          # fixture suite, then clang-tidy over the .cc
#                          # files of src/, bench/ and tests/testing/
#                          # (skipped with a notice when clang-tidy is not
#                          # installed)
#   tools/ci.sh --analyze  # whole-program analysis only: desalign-analyze
#                          # fixture suite + zero-finding tree gate
#                          # (lock-order cycles, layering DAG,
#                          # discarded-status), driven by
#                          # compile_commands.json when present and a
#                          # source-tree walk otherwise
#   tools/ci.sh ubsan      # UndefinedBehaviorSanitizer build + unit and
#                          # fault suites (-fno-sanitize-recover=all, so
#                          # any UB report aborts the test)
#   tools/ci.sh --tier1    # only the tier-1 gate (build + full ctest +
#                          # `perf_bench kernels` smoke)
#   tools/ci.sh --index    # only the index gate (build + `ctest -L index`
#                          # + `perf_bench retrieval` smoke: recall@10 ==
#                          # 1.0 and bit-exactness at full probe, schema
#                          # check)
#   tools/ci.sh --quant    # only the quantization gate (build +
#                          # `ctest -L quant` + `perf_bench retrieval`
#                          # smoke: schema, full-probe bit-exactness per
#                          # dtype, recall@10 delta vs fp32 <= 0.005, int8
#                          # memory >= 3.5x)
#   tools/ci.sh --tsan     # only the ThreadSanitizer-labelled suite
#   tools/ci.sh --faults   # only the fault-injection suite under ASan
#   tools/ci.sh --overload # only the overload gate (`ctest -L overload`
#                          # under TSan + `perf_bench overload` smoke:
#                          # schema, zero shed below capacity, goodput
#                          # under 2x overload >= 0.8x the 1x goodput,
#                          # recovery to healthy with bit-exact results)
#   tools/ci.sh --benchmark # only the benchmark gate: `benchmark/run.sh
#                          # --seconds 4` must report "correct": true, and
#                          # serve-int8-reload's peak_rss_mb at --seconds 16
#                          # must be within 5% of its value at --seconds 4
#                          # (memory must not grow with the reload count)
#
# Test labels (see tests/CMakeLists.txt):
#   unit        — fast, hermetic, single-component tests
#   integration — multi-component pipelines (train → serve, determinism)
#   sanitizer   — concurrency-sensitive suites worth re-running under TSan
#   faults      — crash-safety suite: checksummed checkpoints, torn-write
#                 and bit-flip injection, kill-and-resume bit-exactness
#   index       — two-stage ANN index suite (k-means quantizer, IVF
#                 bit-exactness at full probe, reload-rebuild)
#   quant       — quantized serving suite (int8/bf16 round trips, v3
#                 checkpoints, scan determinism, dtype-swap reload)
#   overload    — serve-side overload protection: bounded admission,
#                 deadlines, the degradation ladder and its chaos suite
#   lint        — desalign-lint fixture corpus + zero-finding tree scan
#   analyze     — desalign-analyze fixture corpus + zero-finding tree gate
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"

stages=(lint analyze tier1 index quant overload benchmark ubsan tsan faults)
for stage in "${stages[@]}"; do declare "run_${stage}=1"; done
case "${1:-}" in
  "") ;;
  lint | ubsan | --analyze | --tier1 | --index | --quant | --overload | \
    --benchmark | --tsan | --faults)
    for stage in "${stages[@]}"; do declare "run_${stage}=0"; done
    declare "run_${1#--}=1" ;;
  *) echo "usage: tools/ci.sh [lint|--analyze|ubsan|--tier1|--index|--quant|--overload|--benchmark|--tsan|--faults]" >&2
     exit 2 ;;
esac

if [[ "${run_lint}" == 1 ]]; then
  echo "== lint: desalign-lint (zero findings over src/ + tests/ + bench/) =="
  python3 tools/lint/desalign_lint.py
  echo "== lint: fixture suite (every rule fires + is suppressible) =="
  python3 tests/lint/lint_test.py --fixtures

  # clang-tidy needs compile_commands.json; configure (cheap) if absent.
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== lint: clang-tidy (warnings are errors) =="
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
    # Every warning is an error: the tree stays tidy-clean, no NOLINT
    # budget. Checks are curated in .clang-tidy at the repo root.
    # bench/*.cc is perf_bench's library, tests/testing/*.cc the kernel
    # oracle: both left src/ and keep the check.
    mapfile -t tidy_sources < <(git ls-files 'src/**/*.cc' 'src/*.cc' \
      'bench/*.cc' 'tests/testing/*.cc')
    clang-tidy -p build --warnings-as-errors='*' "${tidy_sources[@]}"
  else
    echo "== lint: clang-tidy not installed — stage skipped =="
    echo "   (install clang-tidy to run the .clang-tidy check set;"
    echo "    the desalign-lint gate above still ran and passed)"
  fi

  # Clang also proves the thread-safety annotations (-Wthread-safety is a
  # hard error in CMakeLists.txt when the compiler is Clang).
  if command -v clang++ >/dev/null 2>&1; then
    echo "== lint: thread-safety analysis build (clang++) =="
    cmake -B build-tsa -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_COMPILER=clang++ -DDESALIGN_WERROR=ON
    cmake --build build-tsa -j "${JOBS}"
  else
    echo "== lint: clang++ not installed — thread-safety build skipped =="
  fi
fi

if [[ "${run_analyze}" == 1 ]]; then
  echo "== analyze: fixture suite (every pass fires + is suppressible) =="
  python3 tests/analyze/analyze_test.py --fixtures

  # The TU cross-check wants compile_commands.json; configure (cheap) if
  # absent. Without cmake the analyzer still runs — it prints a notice
  # and walks the source tree instead (graceful skip, same policy as the
  # clang-tidy/TSA stages above).
  if command -v cmake >/dev/null 2>&1; then
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  else
    echo "== analyze: cmake not installed — compile-commands TU list =="
    echo "   unavailable; desalign-analyze falls back to a tree walk"
  fi

  echo "== analyze: desalign-analyze (zero findings over src/ + tests/ + bench/) =="
  python3 tools/analyze/desalign_analyze.py
fi

if [[ "${run_tier1}" == 1 ]]; then
  echo "== tier-1: build + full test suite =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DDESALIGN_WERROR=ON
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}"

  echo "== perf_bench kernels smoke: schema + vector-path, GEMV, centroid-distance and similarity-GEMM regression gate =="
  # Tiny shapes, two repeats: this is a regression tripwire (do the
  # vector path on elementwise ops, the n = 1 GEMM, the centroid
  # distances and decode's a * b^T tile at least match the scalar
  # reference?), not a performance measurement — see docs/PERFORMANCE.md
  # for real runs.
  ./build/bench/perf_bench kernels --smoke --threads-list=1,2 \
    --repeats=2 --out=build/BENCH_kernels_smoke.json
  python3 - <<'EOF'
import json
with open("build/BENCH_kernels_smoke.json") as f:
    report = json.load(f)
assert report["schema"] == "desalign.kernel_bench.v3", report.get("schema")
cases = {c["op"]: c for c in report["cases"]}
assert len(cases) >= 15, f"expected >=15 bench cases, got {len(cases)}"
for case in report["cases"]:
    assert case["ref_ns_per_elem"] > 0, case
    for v in case["variants"]:
        assert v["isa"] in ("scalar", "avx2"), v
        assert v["ns_per_elem"] > 0 and v["speedup"] > 0, v
# The contiguous elementwise kernels are the pure vector path: even at
# smoke sizes their best variant must not regress below the old serial
# scalar loops — and since the SpanGrain fix, so must EVERY vector
# variant at <= 2 threads (mul/AVX2 used to hit 0.51x there because a
# 64k-element span was forked across workers; the min-chunk floor keeps
# it serial). Skipped per-op when the CPU has no AVX2 variants.
for op in ("add", "mul", "axpy", "relu"):
    variants = cases[op]["variants"]
    best = max(v["speedup"] for v in variants)
    assert best >= 1.0, f"{op}: best speedup {best:.2f} < 1.0"
    for v in variants:
        if v["isa"] == "avx2" and v["threads"] <= 2:
            assert v["speedup"] >= 1.0, (
                f"{op}: avx2 @{v['threads']} threads regressed to "
                f"{v['speedup']:.2f}x vs scalar (SpanGrain floor broken?)")
# The n = 1 GEMM (the GAT edge-attention projection) once ran at
# 0.38-0.63x of the serial reference here, as one dispatched length-1 axpy
# per (row, k); its own nests must keep it at or above the reference.
for op in ("matmul_gemv_fwd", "matmul_gemv_grad_a", "matmul_gemv_grad_b"):
    assert op in cases, f"missing bench case {op}"
for op in ("matmul_gemv_fwd", "matmul_gemv_grad_b"):
    best = max(v["speedup"] for v in cases[op]["variants"])
    assert best >= 1.0, f"{op}: best speedup {best:.2f} < 1.0"
# The coarse quantizer's distances (k-means assignment, IVF list build and
# probe) go through one kernel with a lane per centroid; it must stay at
# or above the per-centroid reference loop it replaced.
assert "sqdist_columns" in cases, "missing bench case sqdist_columns"
best = max(v["speedup"] for v in cases["sqdist_columns"]["variants"])
assert best >= 1.0, f"sqdist_columns: best speedup {best:.2f} < 1.0"
# Decode's similarity average runs every state's a * b^T through one
# register-tiled nest; it must stay at or above the reference transpose +
# MatMul it replaced.
assert "matmul_transb" in cases, "missing bench case matmul_transb"
best = max(v["speedup"] for v in cases["matmul_transb"]["variants"])
assert best >= 1.0, f"matmul_transb: best speedup {best:.2f} < 1.0"
print(f"kernel-bench smoke OK: {len(cases)} cases, schema v3, "
      "vector path, GEMV, centroid distances and similarity GEMM >= "
      "scalar reference")
EOF
fi

if [[ "${run_index}" == 1 ]]; then
  echo "== index: two-stage ANN suite + perf_bench retrieval smoke gate =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DDESALIGN_WERROR=ON
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L index

  # Smoke sweep: one 10^4-entity case. The gate is correctness, not speed:
  # schema desalign.retrieval_bench.v1, full probe bit-exact vs brute force
  # with recall@10 == 1.0. Partial probe only needs sane bounds here; its
  # real recall floor (>= 0.95 at 10^5) is asserted on full BENCH runs.
  ./build/bench/perf_bench retrieval --smoke \
    --out=build/BENCH_retrieval_smoke.json
  python3 - <<'EOF'
import json
with open("build/BENCH_retrieval_smoke.json") as f:
    report = json.load(f)
assert report["schema"] == "desalign.retrieval_bench.v1", report.get("schema")
assert len(report["cases"]) >= 1, "no bench cases"
for case in report["cases"]:
    assert case["entities"] > 0 and case["num_centroids"] > 0, case
    paths = {p["path"]: p for p in case["paths"]}
    assert {"fp32", "ivf_full", "ivf_partial"} <= set(paths), set(paths)
    full = paths["ivf_full"]
    assert full["bitexact"] is True, "full probe diverged from brute force"
    assert full["recall_at_k"] == 1.0, full["recall_at_k"]
    partial = paths["ivf_partial"]
    assert 0.0 <= partial["recall_at_k"] <= 1.0, partial["recall_at_k"]
    for name in ("fp32", "ivf_full", "ivf_partial"):
        p = paths[name]
        assert p["p50_ms"] > 0 and p["p99_ms"] >= p["p50_ms"], p
        assert p["qps"] > 0, p
print(f"index smoke OK: {len(report['cases'])} case(s), schema v1, "
      "full probe bit-exact with recall@10 == 1.0")
EOF
fi

if [[ "${run_quant}" == 1 ]]; then
  echo "== quant: quantized serving suite + perf_bench retrieval smoke gate =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DDESALIGN_WERROR=ON
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L quant

  # Smoke sweep: one 10^4-entity case at dim 64. Gates on the brute-force
  # paths, schema desalign.retrieval_bench.v1: exact mode bit-exact vs the
  # dequantized brute force for EVERY dtype; int8 full-precision refinement
  # bit-identical to true fp32 brute force; recall@10 within 0.005 of the
  # fp32 baseline; int8 footprint >= 3.5x smaller than fp32 (the dim-64
  # dtype matrix in docs/PERFORMANCE.md explains why 3.76x is the expected
  # value).
  ./build/bench/perf_bench retrieval --smoke \
    --out=build/BENCH_retrieval_smoke.json
  python3 - <<'EOF'
import json
with open("build/BENCH_retrieval_smoke.json") as f:
    report = json.load(f)
assert report["schema"] == "desalign.retrieval_bench.v1", report.get("schema")
assert len(report["cases"]) >= 1, "no bench cases"
for case in report["cases"]:
    assert case["entities"] > 0 and case["k"] > 0, case
    paths = {p["path"]: p for p in case["paths"]}
    assert {"fp32", "bf16", "int8"} <= set(paths), set(paths)
    dtypes = {name: paths[name] for name in ("fp32", "bf16", "int8")}
    fp32 = dtypes["fp32"]
    assert fp32["recall_at_k"] == 1.0 and fp32["hits_at_1"] == 1.0, fp32
    for name, d in dtypes.items():
        assert d["bitexact_full"] is True, (
            f"{name}: exact mode diverged from brute force")
        delta = fp32["recall_at_k"] - d["recall_at_k"]
        assert delta <= 0.005, (
            f"{name}: recall@10 delta {delta:.4f} > 0.005")
        assert d["p50_ms"] > 0 and d["p99_ms"] >= d["p50_ms"], d
    assert dtypes["int8"]["memory_reduction"] >= 3.5, (
        f"int8 reduction {dtypes['int8']['memory_reduction']:.2f}x < 3.5x")
    assert dtypes["bf16"]["memory_reduction"] >= 2.0, dtypes["bf16"]
    # Full-precision refinement: int8 exact mode with the checkpoint-backed
    # row source must reproduce TRUE fp32 brute force bit for bit, and the
    # self-contained (dequantized re-rank) recall must also be recorded.
    assert dtypes["int8"]["refined_exact_matches_fp32"] is True, (
        "int8 refined exact mode diverged from true fp32 brute force")
    assert 0.0 <= dtypes["int8"]["recall_at_k_raw"] <= 1.0, dtypes["int8"]
print(f"quant smoke OK: {len(report['cases'])} case(s), schema v1, "
      "all dtypes bit-exact at full re-rank, refined int8 == fp32, "
      "recall delta <= 0.005")
EOF
fi

if [[ "${run_overload}" == 1 ]]; then
  echo "== overload: chaos suite under TSan + perf_bench overload smoke gate =="
  # The admission/deadline/ladder state machine is all cross-thread; its
  # suite runs under ThreadSanitizer, not just plain Release.
  cmake -B build-tsan -S . -DDESALIGN_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}"
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L overload

  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DDESALIGN_WERROR=ON
  cmake --build build -j "${JOBS}"

  # Open-loop load sweep at 0.5x / 1x / 2x of measured capacity. Gates:
  # schema desalign.overload_bench.v1; below capacity (0.5x) effectively
  # nothing is shed; under 2x overload the queue still delivers >= 0.8x of
  # its 1x goodput (shed the surplus, keep the service) with p99 of
  # admitted requests bounded by the deadline regime; after the storm the
  # governor returns to healthy and serves bit-exact results again.
  ./build/bench/perf_bench overload --smoke \
    --out=build/BENCH_overload_smoke.json
  python3 - <<'EOF'
import json
with open("build/BENCH_overload_smoke.json") as f:
    report = json.load(f)
assert report["schema"] == "desalign.overload_bench.v1", report.get("schema")
assert report["capacity_qps"] > 0, report["capacity_qps"]
cases = {c["multiplier"]: c for c in report["cases"]}
assert {0.5, 1.0, 2.0} <= set(cases), set(cases)
for c in report["cases"]:
    assert c["submitted"] > 0, c
    shed = c["shed_queue_full"] + c["shed_deadline"]
    assert c["admitted"] + c["shed_queue_full"] == c["submitted"], c
    # Every admitted request resolved: served ok or shed on deadline.
    assert c["ok"] + c["shed_deadline"] == c["admitted"], c
    if c["ok"] > 0:
        assert 0 < c["p50_ms"] <= c["p99_ms"], c
        # p99 of ADMITTED requests stays bounded even at 2x overload: the
        # deadline regime caps time-in-system (3x deadline = generous slop
        # for scoring time past the last admission check).
        assert c["p99_ms"] <= 3.0 * report["deadline_ms"], (
            f"x{c['multiplier']}: p99 {c['p99_ms']:.1f} ms unbounded")
half, one, two = cases[0.5], cases[1.0], cases[2.0]
# Below capacity nothing should be turned away (tolerate a stray burst).
assert half["shed_queue_full"] + half["shed_deadline"] \
    <= max(1, half["submitted"] // 100), (
    f"x0.5: shed {half['shed_queue_full'] + half['shed_deadline']} of "
    f"{half['submitted']} below capacity")
# Overload sheds the surplus, not the service: goodput under 2x must hold
# >= 0.8x of the 1x goodput instead of collapsing.
assert two["goodput_qps"] >= 0.8 * one["goodput_qps"], (
    f"goodput collapsed under overload: {two['goodput_qps']:.0f} vs "
    f"{one['goodput_qps']:.0f} at 1x")
# The storm actually engaged the governor...
assert two["max_rung"] >= 1, f"2x overload never degraded: {two}"
# ...and the ladder walked back down afterwards, bit-exactly.
rec = report["recovery"]
assert rec["from_rung"] >= 1, rec
assert rec["reached_healthy"] is True, rec
assert rec["bitexact"] is True, rec
print(f"overload smoke OK: capacity {report['capacity_qps']:.0f} qps, "
      f"goodput@2x {two['goodput_qps']:.0f} >= 0.8x goodput@1x "
      f"{one['goodput_qps']:.0f}, p99 bounded, recovery healthy+bitexact "
      f"in {rec['recover_ms']:.0f} ms")
EOF
fi

if [[ "${run_benchmark}" == 1 ]]; then
  echo "== benchmark: every workload correct + int8 reload memory flat =="
  # Only invokes benchmark/ (run.sh builds its own tree, build-bench/);
  # nothing there is edited. Catches a broken driver build or a failed
  # correctness check before review, and a peak that grows with the
  # number of reloads (the workload reloads its table once a second).
  bench_out="$(mktemp -d)"
  trap 'rm -rf "${bench_out}"' EXIT
  run_bench() {  # <output file> <run.sh args...>
    local out="$1"
    shift
    if ! bash benchmark/run.sh "$@" >"${out}"; then
      tail -n 5 "${out}" >&2
      echo "ci.sh: bash benchmark/run.sh $* failed" >&2
      exit 1
    fi
  }
  run_bench "${bench_out}/all.txt" --seconds 4
  for seconds in 4 16; do
    run_bench "${bench_out}/int8_${seconds}s.txt" \
      --workload serve-int8-reload --seconds "${seconds}"
  done
  python3 - "${bench_out}" <<'EOF'
import json
import sys
from pathlib import Path

out = Path(sys.argv[1])


def result(name):
    """The JSON result object run.sh prints as its last line."""
    return json.loads((out / name).read_text().strip().splitlines()[-1])


every = result("all.txt")
assert every["correct"] is True, f"benchmark/run.sh --seconds 4: {every}"
peaks = {}
for seconds in (4, 16):
    run = result(f"int8_{seconds}s.txt")
    assert run["correct"] is True, f"serve-int8-reload at {seconds} s: {run}"
    peaks[seconds] = run["metrics"]["peak_rss_mb"]["value"]
drift = abs(peaks[16] - peaks[4]) / peaks[4]
assert drift <= 0.05, (
    f"serve-int8-reload peak_rss_mb {peaks[4]:.1f} MB at 4 s but "
    f"{peaks[16]:.1f} MB at 16 s ({drift:.1%} > 5%): memory grows with "
    "the number of reloads")
print(f"benchmark gate OK: {every['attempted']} operations correct; "
      f"serve-int8-reload peak {peaks[4]:.1f} MB at 4 s, "
      f"{peaks[16]:.1f} MB at 16 s ({drift:.1%} apart)")
EOF
fi

if [[ "${run_ubsan}" == 1 ]]; then
  # -fno-sanitize-recover=all (set by the CMake branch) turns every UB
  # report into an abort, so a diagnostic cannot scroll past and exit 0.
  echo "== ubsan: UndefinedBehaviorSanitizer build + unit & fault suites =="
  cmake -B build-ubsan -S . -DDESALIGN_SANITIZE=undefined
  cmake --build build-ubsan -j "${JOBS}"
  ctest --test-dir build-ubsan --output-on-failure -j "${JOBS}" -L unit
  ctest --test-dir build-ubsan --output-on-failure -j "${JOBS}" -L faults
fi

if [[ "${run_faults}" == 1 ]]; then
  # The fault suite corrupts buffers and tears writes on purpose; ASan
  # proves the error paths it forces never read or write out of bounds
  # while they unwind.
  echo "== faults: AddressSanitizer build + fault-injection suite =="
  cmake -B build-asan -S . -DDESALIGN_SANITIZE=address
  cmake --build build-asan -j "${JOBS}"
  # detect_leaks=1: LSan findings gate alongside ASan's. The deliberate
  # static-leak idiom (`static X& x = *new X;`) stays reachable at exit,
  # so LSan does not flag it — anything it does flag is a real leak.
  ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L faults
fi

if [[ "${run_tsan}" == 1 ]]; then
  echo "== sanitizer: ThreadSanitizer build + labelled suites =="
  cmake -B build-tsan -S . -DDESALIGN_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}"
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L sanitizer
  # The crash-safety tests that double as concurrency tests (batched serve
  # shutdown races, reload-under-fire) run again with faults armed.
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L faults
fi

echo "ci.sh: all requested gates passed"
