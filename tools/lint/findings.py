"""Shared finding model for desalign-lint and desalign-analyze.

Both tools report on C++ sources and must agree, byte for byte, on the
reporting contract so CI gates and fixture drivers cannot diverge:

  * findings print as `path:line: [rule] message (detail)` sorted by
    (path, line, rule) — a pure function of the scanned contents;
  * suppression is per-line and per-rule via a tool-tagged pragma
    (`<tool>: allow(<rule>)`); a pragma naming rule A never silences
    rule B, and naming an unknown rule is itself a finding (bad-pragma);
  * exit codes: 0 clean, 1 findings, 2 usage/IO error.

This module is that contract. desalign_lint.py and desalign_analyze.py
hold only their rule definitions and scanners.
"""

from __future__ import annotations

import os
import re
import sys

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx", ".inl")

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

BAD_PRAGMA = "bad-pragma"
BAD_PRAGMA_MESSAGE = "pragma names an unknown rule"


class Finding:
    __slots__ = ("path", "line", "rule", "detail")

    def __init__(self, path, line, rule, detail=""):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def key(self):
        return (self.path, self.line, self.rule)


def strip_comments_and_strings(lines):
    """Returns code-only lines: comments and string/char literals blanked.

    Deliberately simple (no raw strings, no line continuations inside
    literals) — this backs token/structure scanners, not a parser; the
    tree's style keeps it exact in practice.
    """
    out = []
    in_block = False
    for line in lines:
        code = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in ('"', "'"):
                quote = ch
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                code.append(quote + quote)  # keep token boundaries honest
                continue
            code.append(ch)
            i += 1
        out.append("".join(code))
    return out


class PragmaModel:
    """Per-line `<tag>: allow(<rule>)` suppression for one tool.

    `tag` is the tool name the pragma must spell (e.g. "desalign-lint"),
    so a lint pragma never silences an analyzer finding and vice versa.
    """

    def __init__(self, tag, rules):
        self.tag = tag
        self.rules = rules
        self._re = re.compile(re.escape(tag) + r":\s*allow\(([^)]*)\)")

    def line_allowances(self, raw_line):
        """Rule names allowed by pragmas on this line; None if no pragma."""
        matches = self._re.findall(raw_line)
        if not matches:
            return None
        allowed = set()
        for group in matches:
            for name in group.split(","):
                allowed.add(name.strip())
        return allowed

    def filter_hits(self, raw_line, display_path, lineno, hits, findings):
        """Applies this line's pragmas to `hits` (a list of rule names).

        Appends a bad-pragma Finding for every unknown rule named, then
        returns `hits` minus the allowed rules.
        """
        allowed = self.line_allowances(raw_line)
        if allowed is None:
            return hits
        for name in sorted(allowed):
            if name not in self.rules or name == BAD_PRAGMA:
                findings.append(Finding(display_path, lineno, BAD_PRAGMA,
                                        f"unknown rule '{name}'"))
        return [h for h in hits if h not in allowed]


def report(findings, rules, num_files, tool_name, out=None, err=None):
    """Prints findings in the shared format and returns the exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    ordered = sorted(findings, key=Finding.key)
    for f in ordered:
        detail = f" ({f.detail})" if f.detail else ""
        print(f"{f.path}:{f.line}: [{f.rule}] {rules[f.rule]}{detail}",
              file=out)
    print(f"{tool_name}: {len(ordered)} finding(s) in "
          f"{num_files} file(s)", file=err)
    return EXIT_FINDINGS if ordered else EXIT_CLEAN


def collect_files(paths, root, skip_dir_markers, tool_name,
                  suffixes=CXX_EXTENSIONS):
    """Expands files/directories into (full_path, display_path) pairs.

    Directories are walked deterministically, keeping file names that end
    in one of `suffixes`; any directory whose relative path contains one
    of `skip_dir_markers` is pruned (fixture corpora stay scannable when
    named explicitly). Exits 2 on a missing path, matching the shared
    usage-error contract.
    """
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            files.append((full, os.path.relpath(full, root)))
        elif os.path.isdir(full):
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames.sort()
                rel_dir = os.path.relpath(dirpath, root)
                marked = os.path.join(rel_dir, "")
                if any(m in marked for m in skip_dir_markers):
                    dirnames[:] = []
                    continue
                for name in sorted(filenames):
                    if name.endswith(suffixes):
                        f = os.path.join(dirpath, name)
                        files.append((f, os.path.relpath(f, root)))
        else:
            print(f"{tool_name}: no such path: {p}", file=sys.stderr)
            sys.exit(EXIT_USAGE)
    return files


def read_lines(path, tool_name):
    """Reads a source file; exits 2 on IO error (shared contract)."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            return f.read().splitlines()
    except OSError as e:
        print(f"{tool_name}: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
