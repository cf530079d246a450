#!/usr/bin/env python3
"""Runs benchmark workloads with the binary that benchmark/run.sh builds.

Each workload runs in its own process (build-bench/desalign_benchmark).
The harness prints every metric as `<workload> <metric> <value> <unit>`,
writes build-bench/results.json with provenance, checks the output against
BENCHMARK.json and prints one JSON result object as its last line. Run it
through benchmark/run.sh, which builds the binary first.
"""

import argparse
import json
import math
import os
import re
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "desalign_benchmark"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# A workload process runs well under a minute; one still running after
# this long has hung.
RUN_TIMEOUT_S = 170

# Calibration proposes bound = max(floor, SPREAD_FACTOR x (Q3-Q1)/median)
# capped at MAX_BOUND; a metric whose spread cannot fit under the cap is
# marked for demotion to per-layer.
BOUND_FLOORS = {"setup_s": 0.05, "p50_ms": 0.10, "peak_rss_mb": 0.05}
SPREAD_FACTOR = 3.0
MAX_BOUND = 0.25

# Metrics that are statistics over samples and so must carry a count.
PERCENTILE = re.compile(r"(^|[._])p\d\d([._]|$)")
MEDIANS = {"setup_s"}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all"] + WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1],
                   help="1 (or a bare --trace): add a traced run and "
                        "report the per-layer metrics")
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per workload on seeds seed..seed+N-1; N > 1 "
                        "writes build-bench/calibration.json")
    args = p.parse_args()
    if args.repeat < 1 or args.seconds <= 0 or args.seed < 0:
        p.error("--repeat and --seconds must be positive, --seed >= 0")
    return args


def run_binary(workload, seed, seconds, trace):
    """One workload process; returns its JSON result."""
    logs = BUILD / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    log = logs / f"{workload}-seed{seed}-trace{trace}.log"
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--scratch={BUILD / 'tmp' / workload}"]
    if trace:
        (BUILD / "trace").mkdir(exist_ok=True)
        cmd.append(f"--trace-out={BUILD / 'trace' / (workload + '.json')}")
    with open(log, "w") as err:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                              text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"benchmark exited {proc.returncode} with no "
                           f"result; see {log}")
    return json.loads(lines[-1])


def run_once(workload, seed, seconds, trace):
    """An untraced run; with `trace`, also a traced run of the same inputs,
    returned with trace.overhead.* (traced minus untraced) added."""
    base = run_binary(workload, seed, seconds, 0)
    if not trace:
        return base
    traced = run_binary(workload, seed, seconds, 1)
    for m in SPEC["end_to_end"]:
        t = traced["metrics"].get(m["name"], {}).get("value")
        b = base["metrics"].get(m["name"], {}).get("value")
        if t is not None and b is not None:
            traced["metrics"]["trace.overhead." + m["name"]] = {
                "value": t - b, "unit": m["unit"]}
    traced["untraced_metrics"] = base["metrics"]
    traced["attempted"] += base["attempted"]
    traced["failed"] += base["failed"]
    traced["failures"] = base["failures"] + traced["failures"]
    traced["correct"] = base["correct"] and traced["correct"]
    return traced


def self_check(run, specs, end_to_end):
    """Every metric BENCHMARK.json names is present with its unit, finite,
    counted where it is a statistic, and positive if end to end."""
    problems = []
    for spec in specs:
        name = spec["name"]
        where = f"{run['workload']} {name}"
        m = run["metrics"].get(name)
        if m is None:
            problems.append(f"{where}: missing")
            continue
        value = m.get("value")
        if m.get("unit") != spec["unit"]:
            problems.append(f"{where}: unit {m.get('unit')!r}, "
                            f"BENCHMARK.json says {spec['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: value {value!r} is not finite")
            continue
        statistic = (PERCENTILE.search(name) or name in MEDIANS) and \
            not name.startswith("trace.overhead.")
        if statistic and value != 0 and not m.get("samples"):
            problems.append(f"{where}: statistic without a sample count")
        if end_to_end and value <= 0:
            problems.append(f"{where}: end-to-end metric is {value}")
    return problems


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True, timeout=30)


def git_state():
    """(commit, dirty) of the checkout, or ('unknown', None) outside git."""
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or \
                Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown", None
        status = git("status", "--porcelain").stdout
        return git("rev-parse", "HEAD").stdout.strip(), bool(status.strip())
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None


def compile_flags(commands, suffix):
    """Flags of the translation unit whose path ends in `suffix`."""
    for entry in commands:
        if entry["file"].endswith(suffix):
            flags, skip = [], False
            for arg in shlex.split(entry["command"])[1:]:
                if skip:
                    skip = False
                elif arg in ("-o", "-c"):
                    skip = True
                elif not arg.startswith("-I"):
                    flags.append(arg)
            return " ".join(flags)
    return "unknown"


def compiler_version():
    cache = (BUILD / "CMakeCache.txt").read_text()
    found = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    if not found:
        return "unknown"
    out = subprocess.run([found.group(1), "--version"], capture_output=True,
                         text=True, timeout=30).stdout
    return out.splitlines()[0] if out else found.group(1)


def provenance(runs, args):
    commit, dirty = git_state()
    commands = json.loads((BUILD / "compile_commands.json").read_text())
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "compiler": compiler_version(),
        "flags": {tu: compile_flags(commands, tu)
                  for tu in ("src/tensor/kernels/gemm.cc",
                             "src/serve/topk.cc")},
        "nproc": len(os.sched_getaffinity(0)),
        "isa": runs[0]["info"].get("isa") if runs else None,
        "seed": args.seed,
        "seconds": args.seconds,
        "workload_config": {r["workload"]: r["info"].get("config")
                            for r in runs},
    }


def calibrate(runs, specs):
    """Per (workload, metric) median and quartiles over the repeats, and
    the bound each metric needs."""
    table, bounds = {}, {}
    for spec in specs:
        name = spec["name"]
        worst = 0.0
        for w in sorted({r["workload"] for r in runs}):
            values = [r["metrics"][name]["value"] for r in runs
                      if r["workload"] == w and name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            worst = max(worst, spread)
            table.setdefault(w, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": values}
        needed = max(BOUND_FLOORS.get(name, 0.0), SPREAD_FACTOR * worst)
        bounds[name] = {"max_spread": worst,
                        "proposed_bound": min(needed, MAX_BOUND),
                        "demote": needed > MAX_BOUND}
    return {"metrics": table, "bounds": bounds}


def main():
    args = parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    cpus = len(os.sched_getaffinity(0))
    if cpus < 4:
        print(f"benchmark: warning: {cpus} CPUs; the workloads are pinned "
              "for 4, so numbers are not comparable to the baseline",
              file=sys.stderr)

    runs, problems = [], []
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.repeat):
            try:
                run = run_once(workload, seed, args.seconds, args.trace)
            except (RuntimeError, subprocess.TimeoutExpired,
                    json.JSONDecodeError) as e:
                print(f"benchmark: {workload}: {e}", file=sys.stderr)
                return 1
            run["seed"] = seed
            runs.append(run)
            for spec in specs:
                m = run["metrics"].get(spec["name"], {})
                count = f" n={m['samples']}" if "samples" in m else ""
                print(f"{workload} {spec['name']} {m.get('value')} "
                      f"{m.get('unit')}{count}")
            for failure in run["failures"]:
                print(f"benchmark: {workload} seed {seed}: {failure}",
                      file=sys.stderr)
            problems += self_check(run, specs, not args.trace)
            trace_file = BUILD / "trace" / f"{workload}.json"
            if args.trace and not trace_file.is_file():
                problems.append(f"{workload}: no trace file")

    results = {"provenance": provenance(runs, args),
               "trace": bool(args.trace), "runs": runs,
               "self_check": problems}
    (BUILD / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    if args.repeat > 1:
        summary = {"provenance": results["provenance"],
                   "seeds": list(range(args.seed, args.seed + args.repeat))}
        summary.update(calibrate(runs, specs))
        (BUILD / "calibration.json").write_text(
            json.dumps(summary, indent=1) + "\n")
    for problem in problems:
        print(f"benchmark: self-check: {problem}", file=sys.stderr)

    correct = not problems and all(r["correct"] for r in runs)
    metrics = {}
    for spec in specs:
        for w in workloads:
            values = [r["metrics"][spec["name"]]["value"] for r in runs
                      if r["workload"] == w and spec["name"] in r["metrics"]]
            if values:
                key = spec["name"] if len(runs) == 1 else \
                    f"{w}/{spec['name']}"
                metrics[key] = {"value": statistics.median(values),
                                "unit": spec["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
