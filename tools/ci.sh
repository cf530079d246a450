#!/usr/bin/env bash
# CI entry point: the tier-1 gate plus the static-analysis, sanitizer and
# fault gates.
#
#   tools/ci.sh            # full: lint, then tier-1 build + all tests +
#                          # kernel-bench smoke, then UBSan, then ASan
#                          # faults, then TSan suite
#   tools/ci.sh lint       # static analysis only: desalign-lint + its
#                          # fixture suite, then clang-tidy over
#                          # compile_commands.json (skipped with a notice
#                          # when clang-tidy is not installed)
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
#                          # kernel-bench smoke)
#   tools/ci.sh --index    # only the index gate (build + `ctest -L index`
#                          # + bench-index smoke: recall@10 == 1.0 and
#                          # bit-exactness at full probe, schema check)
#   tools/ci.sh --quant    # only the quantization gate (build +
#                          # `ctest -L quant` + bench-quant smoke: schema,
#                          # full-probe bit-exactness per dtype, recall@10
#                          # delta vs fp32 <= 0.005, int8 memory >= 3.5x)
#   tools/ci.sh --tune     # only the solver gate (build + `ctest -L solver`
#                          # + a real `desalign tune` run: find-db
#                          # round-trips through --print, blocked GEMM
#                          # >= 1.15x vs the row-axpy default at >= 256^3)
#   tools/ci.sh --tsan     # only the ThreadSanitizer-labelled suite
#   tools/ci.sh --faults   # only the fault-injection suite under ASan
#   tools/ci.sh --overload # only the overload gate (`ctest -L overload`
#                          # under TSan + bench-overload smoke: schema,
#                          # zero shed below capacity, goodput under 2x
#                          # overload >= 0.8x the 1x goodput, recovery to
#                          # healthy with bit-exact results)
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
#   solver      — GEMM solver registry suite (per-solver bit-exactness,
#                 find-db corruption handling, replay determinism, the
#                 reload-under-Select race)
#   overload    — serve-side overload protection: bounded admission,
#                 deadlines, the degradation ladder and its chaos suite
#   lint        — desalign-lint fixture corpus + zero-finding tree scan
#   analyze     — desalign-analyze fixture corpus + zero-finding tree gate
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"

stages=(lint analyze tier1 index quant tune overload benchmark ubsan tsan
        faults)
for stage in "${stages[@]}"; do declare "run_${stage}=1"; done
case "${1:-}" in
  "") ;;
  lint | ubsan | --analyze | --tier1 | --index | --quant | --tune | \
    --overload | --benchmark | --tsan | --faults)
    for stage in "${stages[@]}"; do declare "run_${stage}=0"; done
    declare "run_${1#--}=1" ;;
  *) echo "usage: tools/ci.sh [lint|--analyze|ubsan|--tier1|--index|--quant|--tune|--overload|--benchmark|--tsan|--faults]" >&2
     exit 2 ;;
esac

if [[ "${run_lint}" == 1 ]]; then
  echo "== lint: desalign-lint (zero findings over src/ + tests/) =="
  python3 tools/lint/desalign_lint.py
  echo "== lint: fixture suite (every rule fires + is suppressible) =="
  python3 tests/lint/lint_test.py --fixtures

  # clang-tidy needs compile_commands.json; configure (cheap) if absent.
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== lint: clang-tidy (warnings are errors) =="
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
    # Every warning is an error: the tree stays tidy-clean, no NOLINT
    # budget. Checks are curated in .clang-tidy at the repo root.
    mapfile -t tidy_sources < <(git ls-files 'src/**/*.cc' 'src/*.cc')
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

  echo "== analyze: desalign-analyze (zero findings over src/ + tests/) =="
  python3 tools/analyze/desalign_analyze.py
fi

if [[ "${run_tier1}" == 1 ]]; then
  echo "== tier-1: build + full test suite =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DDESALIGN_WERROR=ON
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}"

  echo "== kernel-bench smoke: schema + vector-path regression gate =="
  # Tiny shapes, two repeats: this is a regression tripwire (does the
  # vector path at least match the scalar reference on elementwise ops?),
  # not a performance measurement — see docs/PERFORMANCE.md for real runs.
  ./build/tools/desalign bench-kernels --smoke --threads-list=1,2 \
    --repeats=2 --out=build/BENCH_kernels_smoke.json
  python3 - <<'EOF'
import json
with open("build/BENCH_kernels_smoke.json") as f:
    report = json.load(f)
assert report["schema"] == "desalign.kernel_bench.v2", report.get("schema")
cases = {c["op"]: c for c in report["cases"]}
assert len(cases) >= 15, f"expected >=15 bench cases, got {len(cases)}"
for case in report["cases"]:
    assert case["ref_ns_per_elem"] > 0, case
    for v in case["variants"]:
        assert v["isa"] in ("scalar", "avx2"), v
        assert v["ns_per_elem"] > 0 and v["speedup"] > 0, v
# v2: the GEMM cases sweep every registered solver and tag each variant.
for op in ("matmul_fwd", "matmul_grad_a", "matmul_grad_b"):
    solvers = {v["solver"] for v in cases[op]["variants"]}
    assert {"gemm.rowaxpy", "gemm.blocked8x8"} <= solvers, (
        f"{op}: missing solver sweep, got {solvers}")
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
print(f"kernel-bench smoke OK: {len(cases)} cases, schema v2, "
      "vector path >= scalar reference, GEMM solver sweep present")
EOF
fi

if [[ "${run_index}" == 1 ]]; then
  echo "== index: two-stage ANN suite + bench-index smoke gate =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DDESALIGN_WERROR=ON
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L index

  # Smoke sweep: one 10^4-entity case. The gate is correctness, not speed:
  # schema desalign.index_bench.v1, full probe bit-exact vs brute force
  # with recall@10 == 1.0. Partial probe only needs sane bounds here; its
  # real recall floor (>= 0.95 at 10^5) is asserted on full BENCH runs.
  ./build/tools/desalign bench-index --smoke \
    --out=build/BENCH_index_smoke.json
  python3 - <<'EOF'
import json
with open("build/BENCH_index_smoke.json") as f:
    report = json.load(f)
assert report["schema"] == "desalign.index_bench.v1", report.get("schema")
assert len(report["cases"]) >= 1, "no bench cases"
for case in report["cases"]:
    assert case["entities"] > 0 and case["num_centroids"] > 0, case
    paths = {p["path"]: p for p in case["paths"]}
    assert {"brute", "ivf_full", "ivf_partial"} <= set(paths), set(paths)
    full = paths["ivf_full"]
    assert full["bitexact"] is True, "full probe diverged from brute force"
    assert full["recall_at_k"] == 1.0, full["recall_at_k"]
    partial = paths["ivf_partial"]
    assert 0.0 <= partial["recall_at_k"] <= 1.0, partial["recall_at_k"]
    for p in case["paths"]:
        assert p["p50_ms"] > 0 and p["p99_ms"] >= p["p50_ms"], p
        assert p["qps"] > 0, p
print(f"index smoke OK: {len(report['cases'])} case(s), schema v1, "
      "full probe bit-exact with recall@10 == 1.0")
EOF
fi

if [[ "${run_quant}" == 1 ]]; then
  echo "== quant: quantized serving suite + bench-quant smoke gate =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DDESALIGN_WERROR=ON
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L quant

  # Smoke sweep: one 10^4-entity case at dim 64. Gates: schema
  # desalign.quant_bench.v1; exact mode bit-exact vs the dequantized brute
  # force for EVERY dtype; int8 full-precision refinement bit-identical to
  # true fp32 brute force; recall@10 within 0.005 of the fp32 baseline;
  # int8 footprint >= 3.5x smaller than fp32 (the dim-64 dtype matrix in
  # docs/PERFORMANCE.md explains why 3.76x is the expected value).
  ./build/tools/desalign bench-quant --smoke \
    --out=build/BENCH_quant_smoke.json
  python3 - <<'EOF'
import json
with open("build/BENCH_quant_smoke.json") as f:
    report = json.load(f)
assert report["schema"] == "desalign.quant_bench.v1", report.get("schema")
assert len(report["cases"]) >= 1, "no bench cases"
for case in report["cases"]:
    assert case["entities"] > 0 and case["k"] > 0, case
    dtypes = {d["dtype"]: d for d in case["dtypes"]}
    assert {"fp32", "bf16", "int8"} <= set(dtypes), set(dtypes)
    fp32 = dtypes["fp32"]
    assert fp32["recall_at_k"] == 1.0 and fp32["hits_at_1"] == 1.0, fp32
    for d in case["dtypes"]:
        assert d["bitexact_full"] is True, (
            f"{d['dtype']}: exact mode diverged from brute force")
        delta = fp32["recall_at_k"] - d["recall_at_k"]
        assert delta <= 0.005, (
            f"{d['dtype']}: recall@10 delta {delta:.4f} > 0.005")
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

if [[ "${run_tune}" == 1 ]]; then
  echo "== tune: solver suite + offline autotune round-trip gate =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DDESALIGN_WERROR=ON
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L solver

  # A real tune run on small-to-medium cubes. Gates: the report carries
  # every op at every size with at least both stock solvers timed; the
  # persisted find-db round-trips through `tune --print` with the same
  # winners; and at >= 256^3 the blocked GEMM beats the row-axpy default by
  # >= 1.15x on the forward op (the committed BENCH_kernels.json shows
  # ~1.8x at 512^3 single-thread AVX2 — 1.15x is the CI floor, tolerant of
  # noisy shared runners).
  ./build/tools/desalign tune --sizes=64,256 --repeats=3 \
    --cache=build/gemm_find_db_ci.bin --report=build/TUNE_ci.json
  ./build/tools/desalign tune --print --cache=build/gemm_find_db_ci.bin \
    > build/TUNE_ci_print.txt
  python3 - <<'EOF'
import json
with open("build/TUNE_ci.json") as f:
    report = json.load(f)
assert report["schema"] == "desalign.tune.v1", report.get("schema")
entries = report["entries"]
ops = {e["op"] for e in entries}
assert ops == {"matmul_fwd", "matmul_grad_a", "matmul_grad_b"}, ops
assert len(entries) == 6, f"expected 3 ops x 2 sizes, got {len(entries)}"
for e in entries:
    ids = {t["id"] for t in e["solvers"]}
    assert {"gemm.rowaxpy", "gemm.blocked8x8"} <= ids, (e["op"], ids)
    assert all(t["ns_per_elem"] > 0 for t in e["solvers"]), e
    assert e["winner"] in ids, e
fwd256 = next(e for e in entries if e["op"] == "matmul_fwd" and e["m"] >= 256)
timing = {t["id"]: t["ns_per_elem"] for t in fwd256["solvers"]}
ratio = timing["gemm.rowaxpy"] / timing["gemm.blocked8x8"]
assert ratio >= 1.15, (
    f"blocked GEMM only {ratio:.2f}x vs row-axpy at "
    f"{fwd256['m']}^3 (CI floor is 1.15x)")
with open("build/TUNE_ci_print.txt") as f:
    printed = f.read()
assert "version=1 records=6" in printed, printed.splitlines()[:1]
for e in entries:
    assert f"solver={e['winner']}" in printed, (e["op"], e["winner"])
print(f"tune gate OK: 6 entries, find-db round-trips, "
      f"blocked GEMM {ratio:.2f}x vs default at {fwd256['m']}^3")
EOF
fi

if [[ "${run_overload}" == 1 ]]; then
  echo "== overload: chaos suite under TSan + bench-overload smoke gate =="
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
  ./build/tools/desalign bench-overload --smoke \
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
