#!/usr/bin/env python3
"""CTest driver for desalign-analyze (label: analyze).

Two modes:

  --fixtures   every tests/analyze/fixtures/ file (C++ sources and
               .cmake link-edge fixtures) is scanned
               individually: bad_* files must produce exactly the
               findings declared by their `ANALYZE-EXPECT: <rule>`
               marker lines (and exit 1); clean_* / allow_* files must
               produce none (and exit 0); cross_allow.cc proves a
               pragma suppresses only its named rule; bad_pragma.cc
               proves unknown pragma rules are reported. Also checks
               the exit-2 usage-error contract.

  --tree       the zero-finding gate: analyzing src/ and tests/ of the
               real repository must come back clean.
"""

import argparse
import os
import re
import subprocess
import sys

THIS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(THIS_DIR))
ANALYZER = os.path.join(REPO_ROOT, "tools", "analyze",
                        "desalign_analyze.py")
FIXTURE_DIR = os.path.join(THIS_DIR, "fixtures")

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")
EXPECT_RE = re.compile(r"ANALYZE-EXPECT:\s*([a-z-]+)")

failures = []


def check(cond, message):
    if cond:
        print(f"ok: {message}")
    else:
        print(f"FAIL: {message}")
        failures.append(message)


def run_analyzer(args):
    proc = subprocess.run(
        [sys.executable, ANALYZER, "--root", REPO_ROOT] + args,
        capture_output=True, text=True)
    findings = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.append((m.group("path"), int(m.group("line")),
                             m.group("rule")))
    return proc.returncode, findings


def expected_findings(path):
    expected = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            for rule in EXPECT_RE.findall(line):
                expected.append((lineno, rule))
    return expected


def fixture_files():
    found = []
    for dirpath, dirnames, filenames in os.walk(FIXTURE_DIR):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".cc", ".h", ".cmake")):
                found.append(os.path.join(dirpath, name))
    return found


def run_fixture_checks():
    files = fixture_files()
    check(len(files) >= 12, f"fixture corpus present ({len(files)} files)")
    rules_proven_firing = set()
    rules_proven_suppressed = set()

    for path in files:
        rel = os.path.relpath(path, REPO_ROOT)
        name = os.path.basename(path)
        exit_code, findings = run_analyzer([rel])
        expected = expected_findings(path)
        got = sorted((line, rule) for (_, line, rule) in findings)

        if name.startswith(("clean_", "allow_")):
            check(exit_code == 0 and not findings,
                  f"{name}: no findings, exit 0 "
                  f"(got exit {exit_code}, {findings})")
            if name.startswith("allow_"):
                rule = name[len("allow_"):].split(".")[0].replace("_", "-")
                rules_proven_suppressed.add(rule)
        else:
            check(exit_code == 1,
                  f"{name}: exit 1 on findings (got {exit_code})")
            check(got == sorted(expected),
                  f"{name}: exact findings {sorted(expected)} "
                  f"(got {got})")
            for _, rule in expected:
                rules_proven_firing.add(rule)

    # Every allow_<rule> fixture must have a bad_ proof that the same rule
    # fires without the pragma — otherwise "suppressed" is vacuous.
    unproven = rules_proven_suppressed - rules_proven_firing
    check(not unproven,
          f"every suppressed rule also proven to fire (missing: {unproven})")

    # All analyzer rules covered both ways (bad-pragma has no allow form:
    # a pragma cannot allowlist pragma abuse).
    product_rules = {"lock-order", "layering", "discarded-status"}
    check(product_rules <= rules_proven_firing,
          f"all rules fire (missing: {product_rules - rules_proven_firing})")
    check(product_rules <= rules_proven_suppressed,
          "all rules suppressible via their named pragma "
          f"(missing: {product_rules - rules_proven_suppressed})")
    check("bad-pragma" in rules_proven_firing,
          "unknown pragma rule names are reported")

    exit_code, _ = run_analyzer(["no/such/path.cc"])
    check(exit_code == 2, f"usage error exits 2 (got {exit_code})")

    exit_code, _ = run_analyzer(["--passes", "no-such-pass",
                                 "tests/analyze/fixtures/cross_allow.cc"])
    check(exit_code == 2, f"unknown pass exits 2 (got {exit_code})")


def run_tree_check():
    exit_code, findings = run_analyzer([])  # default: src tests
    for path, line, rule in findings:
        print(f"  tree finding: {path}:{line} [{rule}]")
    check(exit_code == 0 and not findings,
          f"whole-tree analysis clean (exit {exit_code}, "
          f"{len(findings)} findings)")


def main():
    parser = argparse.ArgumentParser()
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fixtures", action="store_true")
    mode.add_argument("--tree", action="store_true")
    args = parser.parse_args()

    if args.fixtures:
        run_fixture_checks()
    else:
        run_tree_check()

    if failures:
        print(f"\n{len(failures)} check(s) failed")
        return 1
    print("\nall analyze checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
