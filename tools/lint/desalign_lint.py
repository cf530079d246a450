#!/usr/bin/env python3
"""desalign-lint: project-specific determinism & robustness linter.

Token-scans C++ sources for hazards that generic tools (clang-tidy, TSan)
miss because they are *project contracts*, not language rules:

  banned-random       rand()/srand()/std::random_device — nondeterministic
                      or process-global RNG; all randomness must flow
                      through common::Rng with an explicit seed.
  unseeded-rng        default-constructed std::mt19937/_64 — signals a
                      forgotten seed; construct from common::Rng or an
                      explicit seed expression instead.
  wall-clock          time()/clock()/system_clock outside src/cli/ —
                      wall-clock reads in library code break replayable
                      runs (steady_clock via common::Stopwatch is fine).
  float-atomic        std::atomic<float|double> — concurrent float
                      accumulation is ordering-dependent and violates the
                      bit-exactness contract in docs/PERFORMANCE.md.
  unordered-iteration iteration over a std::unordered_map/set — the visit
                      order is implementation-defined, so anything it
                      feeds (serialized output, reductions) loses
                      byte-stability. Iterate a sorted copy or use
                      std::map/vector.
  naked-new           new/delete outside RAII — ownership must be held by
                      unique_ptr/shared_ptr/containers. The deliberate
                      static-leak idiom (`static X& x = *new X;`) is
                      recognized and allowed.
  missing-fault-site  a src/ file writes files (std::ofstream/fopen/
                      fwrite) but never consults
                      common::FaultInjector::OnSite — crash-safety tests
                      (DESALIGN_FAULTS, docs/ROBUSTNESS.md) cannot reach
                      that IO path.

Suppression is per-line and per-rule only:

    int64_t t = time(nullptr);  // desalign-lint: allow(wall-clock) <why>

A pragma naming rule A never silences rule B, and naming an unknown rule
is itself reported (bad-pragma). See docs/STATIC_ANALYSIS.md.

The finding/pragma/exit-code model is shared with desalign-analyze via
tools/lint/findings.py, so the two tools cannot drift apart.

Usage:
    tools/lint/desalign_lint.py [PATH...]      # default: src/ tests/ bench/
    tools/lint/desalign_lint.py --list-rules

Exit codes: 0 clean, 1 findings, 2 usage/IO error.

Determinism: findings are reported sorted by (path, line, rule); scanning
is a pure function of file contents.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import findings as fm  # noqa: E402  (shared finding model)

# Fixture files deliberately seeded with violations; skipped during
# directory walks, still scannable when named explicitly.
FIXTURE_DIR_MARKERS = (
    os.path.join("tests", "lint", "fixtures"),
    os.path.join("tests", "analyze", "fixtures"),
)

RULES = {
    "banned-random": "rand()/srand()/std::random_device is banned; use "
                     "common::Rng with an explicit seed",
    "unseeded-rng": "default-constructed std::mt19937 hides the seed; "
                    "seed explicitly (see common/rng.h)",
    "wall-clock": "wall-clock read in non-CLI code breaks replayable "
                  "runs; use common::Stopwatch (steady_clock)",
    "float-atomic": "std::atomic<float|double> accumulation is "
                    "ordering-dependent; violates the determinism "
                    "contract (docs/PERFORMANCE.md)",
    "unordered-iteration": "iteration order over unordered containers is "
                           "implementation-defined; sort first or use an "
                           "ordered container",
    "naked-new": "naked new/delete; use unique_ptr/shared_ptr/containers "
                 "(static-leak idiom `static X& x = *new X;` is allowed)",
    "missing-fault-site": "file-writing code without a "
                          "FaultInjector::OnSite call site; crash-safety "
                          "tests cannot inject faults here "
                          "(docs/ROBUSTNESS.md)",
    fm.BAD_PRAGMA: "desalign-lint pragma names an unknown rule",
}

PRAGMAS = fm.PragmaModel("desalign-lint", RULES)

BANNED_RANDOM_RE = re.compile(r"(\b(?:std::)?s?rand\s*\(|\brandom_device\b)")
UNSEEDED_RNG_RE = re.compile(
    r"\bstd::mt19937(?:_64)?\s+\w+\s*(?:;|\{\s*\}|\(\s*\))")
WALL_CLOCK_RE = re.compile(r"(\btime\s*\(|\bclock\s*\(|\bsystem_clock\b)")
FLOAT_ATOMIC_RE = re.compile(r"std::atomic\s*<\s*(?:float|double)\s*>")
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)")
NEW_DELETE_RE = re.compile(r"\bnew\b|\bdelete\b")
DELETED_FN_RE = re.compile(r"=\s*delete\b|\boperator\s+(?:new|delete)\b")
SMART_PTR_RE = re.compile(
    r"unique_ptr\s*<|shared_ptr\s*<|make_unique|make_shared")
WRITE_IO_RE = re.compile(r"\bstd::ofstream\b|\bfopen\s*\(|\bfwrite\s*\(")
ON_SITE_RE = re.compile(r"\bOnSite\s*\(")


def scan_file(path, display_path):
    raw_lines = fm.read_lines(path, "desalign-lint")
    code_lines = fm.strip_comments_and_strings(raw_lines)
    found = []
    norm = display_path.replace(os.sep, "/")
    in_src = norm.startswith("src/") or "/src/" in norm
    is_cli = "src/cli/" in norm or norm.startswith("src/cli/")

    # File-level facts for missing-fault-site.
    has_on_site = any(ON_SITE_RE.search(c) for c in code_lines)

    # Names of unordered containers declared anywhere in this file.
    unordered_names = set()
    for code in code_lines:
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))
    unordered_iter_res = []
    if unordered_names:
        names = "|".join(sorted(re.escape(n) for n in unordered_names))
        unordered_iter_res = [
            re.compile(r"for\s*\([^;)]*:\s*(?:" + names + r")\b"),
            re.compile(r"\b(?:" + names + r")\s*\.\s*(?:begin|cbegin|rbegin)"
                       r"\s*\("),
        ]

    for idx, (raw, code) in enumerate(zip(raw_lines, code_lines)):
        lineno = idx + 1
        hits = []

        if BANNED_RANDOM_RE.search(code):
            hits.append("banned-random")
        if UNSEEDED_RNG_RE.search(code):
            hits.append("unseeded-rng")
        if not is_cli and WALL_CLOCK_RE.search(code):
            hits.append("wall-clock")
        if FLOAT_ATOMIC_RE.search(code):
            hits.append("float-atomic")
        for rx in unordered_iter_res:
            if rx.search(code):
                hits.append("unordered-iteration")
                break
        if NEW_DELETE_RE.search(code) and not DELETED_FN_RE.search(code) \
                and not SMART_PTR_RE.search(code):
            # The static-leak idiom spans at most the declarator line and
            # one continuation; accept `static` on this or the previous
            # code line.
            prev = code_lines[idx - 1] if idx > 0 else ""
            joined = prev + " " + code
            if not re.search(r"\bstatic\b", joined):
                hits.append("naked-new")
        if in_src and not is_cli and not has_on_site \
                and WRITE_IO_RE.search(code):
            hits.append("missing-fault-site")

        hits = PRAGMAS.filter_hits(raw, display_path, lineno, hits, found)
        for rule in hits:
            found.append(fm.Finding(display_path, lineno, rule))

    return found


def main(argv):
    parser = argparse.ArgumentParser(prog="desalign-lint", add_help=True)
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tests bench)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: auto-detected "
                             "from this script's location)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(f"{name}: {RULES[name]}")
        return fm.EXIT_CLEAN

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    paths = args.paths or ["src", "tests", "bench"]

    found = []
    files = fm.collect_files(paths, root, FIXTURE_DIR_MARKERS,
                             "desalign-lint")
    for full, rel in files:
        found.extend(scan_file(full, rel))

    return fm.report(found, RULES, len(files), "desalign-lint")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
