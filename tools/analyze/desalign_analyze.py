#!/usr/bin/env python3
"""desalign-analyze: whole-program concurrency & architecture analyzer.

Where desalign-lint token-scans single lines, this tool builds global
models across every translation unit of the build (the TU list comes from
the CMake-exported compile_commands.json; without one it falls back to a
deterministic source-tree walk, with a notice — the same graceful-skip
policy the clang-tidy/TSA stages use when clang is absent) and enforces
three whole-program contracts:

  lock-order        Every `MutexLock` scope and REQUIRES/
                    EXCLUSIVE_LOCKS_REQUIRED/ACQUIRE annotation is
                    extracted into a global lock-acquisition graph
                    (lock A -> lock B when B is acquired while A is
                    held, lexically or through a call chain). Any cycle
                    is a potential deadlock: two threads entering the
                    cycle from different edges can block forever.
                    Intentional orders are documented in
                    tools/analyze/lock_order.toml (ACQUIRED_BEFORE-style
                    `[[order]]` entries join the graph, so inverting a
                    documented order is itself a cycle), and a known-
                    benign cycle can be suppressed only by a named
                    `[[allow_cycle]]` manifest entry or a pragma on the
                    reported line.

  layering          The module dependency DAG in
                    tools/analyze/layering.toml is enforced against the
                    include graph and the link graph: a file in src/<m>/
                    may only #include from modules <m> is declared to
                    depend on, and target_link_libraries(desalign_<m> ...)
                    in src/<m>/CMakeLists.txt may only link the
                    desalign_<dep> libraries of those modules. tests/,
                    bench/ and tools/ see everything; a new src/ module
                    must be declared before it links anywhere.

  discarded-status  Call sites that drop the result of a fallible API
                    (common::Status / common::Result returns such as
                    Reload, ReloadAndRebuild, checkpoint and store
                    Save/Load, QuantizeTensor, and the
                    ServeStatus-carrying futures of BatchQueue::Submit)
                    as a bare expression-statement. `(void)expr` is the
                    sanctioned explicit discard. The declarations
                    themselves carry [[nodiscard]] (the compiler
                    enforces new call sites forever); this pass also
                    verifies the nodiscard anchors are still present, so
                    the attribute cannot be silently dropped.

Suppression is per-line and per-rule, tagged with this tool's name so a
lint pragma never silences an analyzer finding:

    queue.Submit(std::move(q));  // desalign-analyze: allow(discarded-status) fire-and-forget warmup

The finding/pragma/exit-code model is shared with desalign-lint via
tools/lint/findings.py. Exit codes: 0 clean, 1 findings, 2 usage/IO or
manifest error. Findings are sorted by (path, line, rule) and are a pure
function of the scanned contents plus the two manifests.

Usage:
    tools/analyze/desalign_analyze.py [PATH...]     # default: src/ tests/
    tools/analyze/desalign_analyze.py --list-rules
    tools/analyze/desalign_analyze.py --passes=lock-order,layering
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tomllib

_THIS_DIR = os.path.dirname(os.path.abspath(__file__))
_REPO_ROOT = os.path.dirname(os.path.dirname(_THIS_DIR))
sys.path.insert(0, os.path.join(_REPO_ROOT, "tools", "lint"))

import findings as fm  # noqa: E402  (shared finding model)

TOOL = "desalign-analyze"

RULES = {
    "lock-order": "cycle in the global lock-acquisition graph — a "
                  "potential deadlock; fix the order or document it in "
                  "tools/analyze/lock_order.toml",
    "layering": "include or link edge crosses the module DAG in "
                "tools/analyze/layering.toml; depend downward or move "
                "the shared code down a layer",
    "discarded-status": "result of a fallible API is dropped; check it, "
                        "propagate it, or cast to void deliberately",
    fm.BAD_PRAGMA: "desalign-analyze pragma names an unknown rule",
}

ALL_PASSES = ("lock-order", "layering", "discarded-status")

PRAGMAS = fm.PragmaModel(TOOL, RULES)

FIXTURE_DIR_MARKERS = (
    os.path.join("tests", "lint", "fixtures"),
    os.path.join("tests", "analyze", "fixtures"),
)

# CMake sources: the layering pass reads their link edges; the C++ passes
# skip them.
CMAKE_SUFFIXES = ("CMakeLists.txt", ".cmake")

# ---------------------------------------------------------------------------
# Shared source model


class SourceFile:
    __slots__ = ("path", "display", "raw", "code", "norm")

    def __init__(self, path, display):
        self.path = path
        self.display = display
        self.norm = display.replace(os.sep, "/")
        self.raw = fm.read_lines(path, TOOL)
        self.code = fm.strip_comments_and_strings(self.raw)


def emit(found, sf, lineno, rule, detail):
    """Appends a finding unless a pragma on its line allows the rule."""
    raw = sf.raw[lineno - 1] if 0 < lineno <= len(sf.raw) else ""
    allowed = PRAGMAS.line_allowances(raw)
    if allowed is not None and rule in allowed:
        return
    found.append(fm.Finding(sf.display, lineno, rule, detail))


def scan_pragma_abuse(found, sf):
    """Reports analyzer pragmas naming unknown rules (bad-pragma), on
    every line whether or not it also carries a finding."""
    for idx, raw in enumerate(sf.raw):
        allowed = PRAGMAS.line_allowances(raw)
        if allowed is None:
            continue
        for name in sorted(allowed):
            if name not in RULES or name == fm.BAD_PRAGMA:
                found.append(fm.Finding(sf.display, idx + 1, fm.BAD_PRAGMA,
                                        f"unknown rule '{name}'"))


# ---------------------------------------------------------------------------
# Pass 1: lock-order

MUTEXLOCK_RE = re.compile(
    r"\b(?:common::)?MutexLock\s+\w+\s*\(\s*([^;]*?)\s*\)\s*$")
ANNOTATION_RE = re.compile(
    r"\b(REQUIRES|EXCLUSIVE_LOCKS_REQUIRED|ACQUIRE|ACQUIRE_SHARED|"
    r"REQUIRES_SHARED|SHARED_LOCKS_REQUIRED)\s*\(([^()]*)\)")
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
SCOPE_CLASS_RE = re.compile(
    r"^(?:template\s*<[^{}]*>\s*)?(?:class|struct|union|enum(?:\s+class)?)"
    r"\b[^=;]*$")
CLASS_NAME_RE = re.compile(
    r"\b(?:class|struct|union|enum(?:\s+class)?)\s+"
    # Attribute macros, with or without arguments (CAPABILITY("m"),
    # SCOPED_CAPABILITY); backtracking recovers a genuinely ALL_CAPS
    # class name since nothing matchable would follow it.
    r"(?:[A-Z_][A-Z0-9_]*(?:\s*\([^()]*\))?\s+)*"
    r"(?:\[\[[^\]]*\]\]\s*)*"
    r"([A-Za-z_]\w*)")
NAMESPACE_RE = re.compile(r"^namespace\b\s*([\w:]*)")
FUNC_NAME_RE = re.compile(
    r"([A-Za-z_~]\w*(?:\s*::\s*[A-Za-z_~]\w*)*)\s*\(")
OPERATOR_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*operator\s*[^\s(]+)\s*\(")
TEMPLATE_PREFIX_RE = re.compile(
    r"^template\s*<[^<>]*(?:<[^<>]*>[^<>]*)*>\s*")
LOCAL_DECL_TMPL = (r"\b([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)"
                   r"(?:\s*<[^;<>]*>)?\s*[&*]?\s+\b{name}\b")

CONTROL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "sizeof", "new",
    "delete", "throw", "assert", "static_assert", "alignof", "decltype",
    "co_return", "co_await", "else", "do", "case", "default",
))

# Call names never worth tracking (ubiquitous utilities that either hold no
# project lock or would alias by name across every class).
CALL_NOISE = frozenset((
    "MutexLock", "CondVar", "Mutex", "Finding", "CHECK", "CHECK_EQ",
    "CHECK_GE", "CHECK_GT", "CHECK_LE", "CHECK_LT", "CHECK_NE", "DCHECK",
    "size", "empty", "begin", "end", "push_back", "emplace_back", "data",
    "reserve", "resize", "clear", "find", "count", "insert", "erase",
    "front", "back", "get", "reset", "release", "move", "swap", "min",
    "max", "make_unique", "make_shared", "to_string", "static_cast",
    "reinterpret_cast", "const_cast", "dynamic_cast",
)) | CONTROL_KEYWORDS


class FunctionModel:
    __slots__ = ("qual_name", "last_name", "class_name", "file", "line",
                 "acquires", "edges", "calls", "body_text")

    def __init__(self, qual_name, class_name, file, line):
        self.qual_name = qual_name
        self.last_name = qual_name.rsplit("::", 1)[-1]
        self.class_name = class_name
        self.file = file
        self.line = line
        self.acquires = set()    # lock ids acquired anywhere inside
        self.edges = []          # (held_id, acquired_id, line)
        self.calls = []          # (frozenset(held_ids) | None, name, line)
        self.body_text = ""      # accumulated code, for local-decl lookup


class _Scope:
    __slots__ = ("kind", "name", "locks")

    def __init__(self, kind, name=""):
        self.kind = kind   # namespace | class | func | block
        self.name = name
        self.locks = []    # lock ids acquired directly in this scope


class LockScanner:
    """Extracts per-function lock acquisitions, annotation-implied held
    sets, and call sites from one file, via brace/statement structure.

    This is a structural scanner, not a parser: it understands the tree's
    clang-format style (scopes open on the signature line, RAII MutexLock
    statements, out-of-line `Class::Method` definitions) and resolves lock
    expressions to `Class::member` identities — member names against the
    enclosing class, `recv.member` through local declarations, and
    `Factory()` calls as global identities.
    """

    def __init__(self, sf, functions):
        self.sf = sf
        self.functions = functions
        self.scopes = []
        self.held = []            # stack of lock ids currently held
        self.func_stack = []      # FunctionModel currently being scanned
        self.pending = ""
        self.pending_line = 0     # line where pending started

    def current_func(self):
        return self.func_stack[-1] if self.func_stack else None

    def current_class(self):
        for scope in reversed(self.scopes):
            if scope.kind == "class":
                return scope.name
        return ""

    def scan(self):
        in_directive = False
        for idx, code in enumerate(self.sf.code):
            lineno = idx + 1
            raw = self.sf.raw[idx]
            if in_directive or code.lstrip().startswith("#"):
                # Preprocessor lines can hold unbalanced braces; skipping
                # them keeps the scope stack honest.
                in_directive = raw.rstrip().endswith("\\")
                continue
            for ch in code:
                if ch == "{":
                    self._open_scope(lineno)
                elif ch == "}":
                    self._close_scope()
                elif ch == ";":
                    self._statement(self.pending, lineno)
                    self.pending = ""
                    self.pending_line = 0
                else:
                    if not self.pending.strip():
                        self.pending_line = lineno
                    self.pending += ch
            self.pending += "\n"
        return self.functions

    # -- scope machinery

    def _open_scope(self, lineno):
        header = self.pending.strip()
        self.pending = ""
        self.pending_line = 0
        f = self.current_func()
        if f is not None:
            f.body_text += header + "\n"

        ns = NAMESPACE_RE.match(header)
        if ns is not None:
            self.scopes.append(_Scope("namespace", ns.group(1)))
            return
        if SCOPE_CLASS_RE.match(header):
            stripped = TEMPLATE_PREFIX_RE.sub("", header)
            m = CLASS_NAME_RE.search(stripped)
            self.scopes.append(_Scope("class",
                                      m.group(1) if m else "<anon>"))
            return
        if "(" in header and f is None:
            m = OPERATOR_NAME_RE.search(header)
            if m is None:
                m = FUNC_NAME_RE.search(header)
            if m is not None and header[:m.start()].count("(") == 0:
                name = re.sub(r"\s+", "", m.group(1))
                base = name.rsplit("::", 1)[-1]
                if base not in CONTROL_KEYWORDS:
                    self._open_function(name, header, lineno)
                    return
        if f is not None:
            # Calls inside a control-scope header (`if (Foo())`, range-for
            # sources, ...) still happen while the current locks are held.
            self._extract_calls(header, lineno)
        self.scopes.append(_Scope("block"))

    def _open_function(self, name, header, lineno):
        cls = self.current_class()
        if "::" in name:
            parts = name.split("::")
            cls = parts[-2]
            qual = name
        else:
            qual = f"{cls}::{name}" if cls else name
        func = FunctionModel(qual, cls, self.sf, lineno)
        self.func_stack.append(func)
        scope = _Scope("func", qual)
        self.scopes.append(scope)
        # REQUIRES locks are held on entry; ACQUIRE locks are acquired by
        # the function body (summary + held for the rest of the body).
        for macro, args in ANNOTATION_RE.findall(header):
            for arg in args.split(","):
                arg = arg.strip()
                if not arg or arg == "!":
                    continue
                lock = self._resolve_lock(arg, func)
                if lock is None:
                    continue
                if macro.startswith(("ACQUIRE",)):
                    self._acquire(lock, lineno, func, scope)
                else:
                    scope.locks.append(lock)
                    self.held.append(lock)
        self.functions.append(func)

    def _close_scope(self):
        self.pending = ""
        self.pending_line = 0
        if not self.scopes:
            return
        scope = self.scopes.pop()
        for lock in scope.locks:
            if lock in self.held:
                self.held.remove(lock)
        if scope.kind == "func" and self.func_stack:
            self.func_stack.pop()

    # -- statements

    def _statement(self, stmt, lineno):
        stmt = stmt.strip()
        if not stmt:
            return
        func = self.current_func()
        if func is None:
            # Class-body declaration: an annotated prototype still tells us
            # what calling it acquires/requires, cross-TU.
            self._declaration(stmt, lineno)
            return
        func.body_text += stmt + "\n"
        line = self.pending_line or lineno

        m = MUTEXLOCK_RE.search(stmt)
        if m is not None:
            lock = self._resolve_lock(m.group(1), func)
            if lock is not None:
                self._acquire(lock, line, func,
                              self.scopes[-1] if self.scopes else None)
            return
        lk = re.search(r"([A-Za-z_][\w.>-]*)\s*(?:\.|->)\s*Lock\s*\(\s*\)",
                       stmt)
        if lk is not None:
            lock = self._resolve_lock(lk.group(1), func)
            if lock is not None and self.scopes:
                self._acquire(lock, line, func, self.scopes[-1])
            return
        ul = re.search(r"([A-Za-z_][\w.>-]*)\s*(?:\.|->)\s*Unlock\s*\(\s*\)",
                       stmt)
        if ul is not None:
            lock = self._resolve_lock(ul.group(1), func)
            if lock in self.held:
                self.held.remove(lock)
                for scope in self.scopes:
                    if lock in scope.locks:
                        scope.locks.remove(lock)
                        break
            return

        self._extract_calls(stmt, line)

    def _extract_calls(self, text, line):
        func = self.current_func()
        if func is None:
            return
        held = frozenset(self.held)
        for cm in CALL_RE.finditer(text):
            callee = cm.group(1)
            if callee in CALL_NOISE:
                continue
            func.calls.append((held if held else None, callee, line))

    def _declaration(self, stmt, lineno):
        annotations = ANNOTATION_RE.findall(stmt)
        if not annotations or "(" not in stmt:
            return
        m = FUNC_NAME_RE.search(stmt)
        if m is None:
            return
        name = re.sub(r"\s+", "", m.group(1))
        cls = self.current_class()
        qual = f"{cls}::{name}" if cls and "::" not in name else name
        func = FunctionModel(qual, cls, self.sf, lineno)
        for macro, args in annotations:
            if not macro.startswith("ACQUIRE"):
                continue
            for arg in args.split(","):
                arg = arg.strip()
                if arg and arg != "!":
                    lock = self._resolve_lock(arg, func)
                    if lock is not None:
                        func.acquires.add(lock)
        if func.acquires:
            self.functions.append(func)

    def _acquire(self, lock, lineno, func, scope):
        for held in self.held:
            func.edges.append((held, lock, lineno))
        func.acquires.add(lock)
        if scope is not None:
            scope.locks.append(lock)
        self.held.append(lock)

    # -- lock identity resolution

    def _resolve_lock(self, expr, func):
        expr = expr.strip().lstrip("&*").strip()
        if not expr:
            return None
        if re.fullmatch(r"[A-Za-z_]\w*(?:::\w+)*\s*\(\s*\)", expr):
            return re.sub(r"\s+", "", expr)  # factory: GlobalPoolMutex()
        m = re.fullmatch(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*([A-Za-z_]\w*)",
                         expr)
        if m is not None:
            recv, member = m.group(1), m.group(2)
            rtype = self._local_type(recv, func)
            if rtype is not None:
                return f"{rtype}::{member}"
            return f"{func.qual_name}#{recv}.{member}"
        if re.fullmatch(r"[A-Za-z_]\w*::[\w:]+", expr):
            return expr
        if re.fullmatch(r"[A-Za-z_]\w*", expr):
            if func.class_name:
                return f"{func.class_name}::{expr}"
            return f"{func.qual_name}#{expr}"
        compact = re.sub(r"\s+", "", expr)
        return f"{func.qual_name}#<{compact}>"

    def _local_type(self, name, func):
        rx = re.compile(LOCAL_DECL_TMPL.format(name=re.escape(name)))
        rtype = None
        for m in rx.finditer(func.body_text):
            cand = m.group(1)
            last = cand.rsplit("::", 1)[-1]
            if last in CONTROL_KEYWORDS or last in ("const", "auto",
                                                    "static", "mutable"):
                continue
            rtype = last
        return rtype


def build_lock_graph(sources):
    """Returns (edges, functions): edges maps (a, b) -> (display, line,
    via) for the lexically smallest witness of 'b acquired while a held'.
    """
    functions = []
    for sf in sources:
        LockScanner(sf, functions).scan()

    # May-acquire summaries to a fixpoint: a function may acquire what it
    # acquires directly plus whatever its callees (matched by name) may.
    by_name = {}
    for f in functions:
        by_name.setdefault(f.last_name, []).append(f)
    may = {id(f): set(f.acquires) for f in functions}
    for _ in range(len(functions)):
        changed = False
        for f in functions:
            mine = may[id(f)]
            before = len(mine)
            for _, callee, _ in f.calls:
                for g in by_name.get(callee, ()):
                    mine |= may[id(g)]
            if len(mine) != before:
                changed = True
        if not changed:
            break

    edges = {}

    def witness(a, b, display, line, via):
        key = (a, b)
        cand = (display, line, via)
        if key not in edges or (cand[0], cand[1]) < edges[key][:2]:
            edges[key] = cand

    for f in functions:
        for a, b, line in f.edges:
            witness(a, b, f.file.display, line, "")
        for held, callee, line in f.calls:
            if held is None:
                continue
            for g in by_name.get(callee, ()):
                for b in may[id(g)]:
                    for a in held:
                        # Same-lock self-edges through name-matched calls
                        # would alias distinct objects; only lexical
                        # re-acquisition (above) reports those.
                        if a != b:
                            witness(a, b, f.file.display, line,
                                    f"via {callee}()")
    return edges, functions


def tarjan_sccs(nodes, succ):
    """Iterative Tarjan; returns SCCs as sorted node lists, in a
    deterministic order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(sorted(succ.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(succ.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    scc.append(top)
                    if top == node:
                        break
                sccs.append(sorted(scc))
    return sccs


def load_lock_manifest(root):
    path = os.path.join(root, "tools", "analyze", "lock_order.toml")
    if not os.path.isfile(path):
        return [], []
    try:
        with open(path, "rb") as f:
            data = tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError) as e:
        print(f"{TOOL}: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(fm.EXIT_USAGE)
    orders = []
    for entry in data.get("order", []):
        before, after = entry.get("before"), entry.get("after")
        if not before or not after:
            print(f"{TOOL}: {path}: [[order]] needs before/after",
                  file=sys.stderr)
            sys.exit(fm.EXIT_USAGE)
        orders.append((before, after))
    allowed = []
    for entry in data.get("allow_cycle", []):
        locks = entry.get("locks")
        if not locks or not entry.get("reason"):
            print(f"{TOOL}: {path}: [[allow_cycle]] needs locks + reason",
                  file=sys.stderr)
            sys.exit(fm.EXIT_USAGE)
        allowed.append(frozenset(locks))
    return orders, allowed


def pass_lock_order(found, sources, root):
    edges, _ = build_lock_graph(sources)
    orders, allowed_cycles = load_lock_manifest(root)

    # Documented orders join the graph: observing the inversion of a
    # documented ACQUIRED_BEFORE edge closes a 2-cycle and is reported.
    doc_edges = set()
    for before, after in orders:
        if (before, after) not in edges:
            doc_edges.add((before, after))

    succ = {}
    nodes = set()
    for a, b in list(edges) + list(doc_edges):
        succ.setdefault(a, set()).add(b)
        nodes.update((a, b))

    # The manifest itself must be a partial order, not a cycle source.
    doc_succ = {}
    for before, after in orders:
        doc_succ.setdefault(before, set()).add(after)
    for scc in tarjan_sccs({n for e in orders for n in e}, doc_succ):
        if len(scc) > 1:
            print(f"{TOOL}: lock_order.toml [[order]] entries are cyclic: "
                  f"{' -> '.join(scc)}", file=sys.stderr)
            sys.exit(fm.EXIT_USAGE)

    for scc in tarjan_sccs(nodes, succ):
        internal = [(a, b) for (a, b) in edges
                    if a in scc and b in scc and (len(scc) > 1 or a == b)]
        if len(scc) == 1:
            internal = [(a, b) for (a, b) in internal if a == b == scc[0]]
        if not internal:
            continue
        if frozenset(scc) in allowed_cycles:
            continue
        # Anchor at the lexically smallest witness among the cycle's
        # observed edges; describe every edge so the report is actionable.
        witnesses = sorted(
            (edges[e][0], edges[e][1], e, edges[e][2]) for e in internal)
        display, line, _, _ = witnesses[0]
        parts = []
        for w_display, w_line, (a, b), via in witnesses:
            via_txt = f" {via}" if via else ""
            parts.append(f"{a} -> {b} at {w_display}:{w_line}{via_txt}")
        if len(scc) == 1:
            detail = (f"{scc[0]} re-acquired while already held "
                      f"(common::Mutex is non-reentrant): {parts[0]}")
        else:
            detail = ("cycle between {" + ", ".join(scc) + "}: "
                      + "; ".join(parts))
        sf = next(s for s in sources if s.display == display)
        emit(found, sf, line, "lock-order", detail)


# ---------------------------------------------------------------------------
# Pass 2: layering

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
SRC_MODULE_RE = re.compile(r"(?:^|/)src/([A-Za-z0-9_]+)/")


def load_layering(root):
    path = os.path.join(root, "tools", "analyze", "layering.toml")
    if not os.path.isfile(path):
        print(f"{TOOL}: missing {path} — the layering pass needs the "
              f"module DAG manifest", file=sys.stderr)
        sys.exit(fm.EXIT_USAGE)
    try:
        with open(path, "rb") as f:
            data = tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError) as e:
        print(f"{TOOL}: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(fm.EXIT_USAGE)
    modules = data.get("modules")
    if not isinstance(modules, dict) or not modules:
        print(f"{TOOL}: {path}: needs a [modules] table", file=sys.stderr)
        sys.exit(fm.EXIT_USAGE)
    deps = {}
    for name, allowed in modules.items():
        deps[name] = set(allowed)
    # The declared DAG must actually be acyclic, or the contract is void.
    succ = {m: set(d) & set(deps) for m, d in deps.items()}
    for scc in tarjan_sccs(set(deps), succ):
        if len(scc) > 1:
            print(f"{TOOL}: {path}: declared module graph is cyclic: "
                  f"{' -> '.join(scc)}", file=sys.stderr)
            sys.exit(fm.EXIT_USAGE)
    return deps


LINK_TOKEN_RE = re.compile(r"[()]|[^\s()]+")
LIBRARY_RE = re.compile(r"^desalign_([A-Za-z0-9_]+)$")


def cmake_link_edges(sf):
    """(line, module, dep) for every desalign_<dep> that a
    target_link_libraries(desalign_<module> ...) call in `sf` links."""
    tokens = []
    for idx, raw in enumerate(sf.raw):
        code = raw.split("#", 1)[0]  # CMake comments run to end of line
        tokens.extend((idx + 1, t) for t in LINK_TOKEN_RE.findall(code))
    edges = []
    for i, (_, tok) in enumerate(tokens[:-1]):
        if tok != "target_link_libraries" or tokens[i + 1][1] != "(":
            continue
        args = []
        for line, arg in tokens[i + 2:]:
            if arg == ")":
                break
            args.append((line, arg))
        target = LIBRARY_RE.match(args[0][1]) if args else None
        if target is None:
            continue
        for line, arg in args[1:]:
            dep = LIBRARY_RE.match(arg)
            if dep is not None:
                edges.append((line, target.group(1), dep.group(1)))
    return edges


def check_link_edges(found, sf, deps):
    for line, module, dep in cmake_link_edges(sf):
        if dep not in deps:
            continue  # not a src/ module library
        if module not in deps:
            emit(found, sf, line, "layering",
                 f"module '{module}' is not declared in "
                 f"tools/analyze/layering.toml")
        elif dep != module and dep not in deps[module]:
            allowed = ", ".join(sorted(deps[module])) or "none"
            emit(found, sf, line, "layering",
                 f"module '{module}' may not link 'desalign_{dep}' "
                 f"(allowed: {allowed})")


def pass_layering(found, sources, root):
    deps = load_layering(root)
    for sf in sources:
        m = SRC_MODULE_RE.search(sf.norm)
        if m is None:
            continue  # tests/, bench/, tools/ see everything
        if sf.norm.endswith(CMAKE_SUFFIXES):
            check_link_edges(found, sf, deps)
            continue
        module = m.group(1)
        undeclared = module not in deps
        for idx, raw in enumerate(sf.raw):
            inc = INCLUDE_RE.match(raw)
            if inc is None:
                continue
            target = inc.group(1).split("/", 1)[0]
            if "/" not in inc.group(1) or target not in deps:
                continue  # local header or system-style include
            if undeclared:
                emit(found, sf, idx + 1, "layering",
                     f"module '{module}' is not declared in "
                     f"tools/analyze/layering.toml")
                continue
            if target != module and target not in deps[module]:
                allowed = ", ".join(sorted(deps[module])) or "none"
                emit(found, sf, idx + 1, "layering",
                     f"module '{module}' may not include '{target}' "
                     f"(allowed: {allowed})")


# ---------------------------------------------------------------------------
# Pass 3: discarded-status

# Fallible-call surface: APIs whose return value carries the only record
# of failure. Name-keyed; the statement-shape check (a bare
# `chain.Name(...);` expression-statement) keeps generic names precise.
FALLIBLE_CALLS = {
    "Reload": "EmbeddingStore::Reload (common::Status)",
    "ReloadAndRebuild": "IvfRetriever::ReloadAndRebuild (common::Status)",
    "Save": "checkpoint/store Save (common::Status)",
    "Load": "checkpoint/store Load (common::Result)",
    "SaveCheckpoint": "nn::SaveCheckpoint (common::Status)",
    "LoadCheckpoint": "nn::LoadCheckpoint (common::Result)",
    "LoadLatestValid": "CheckpointManager::LoadLatestValid (common::Result)",
    "LoadAllParameters": "nn::LoadAllParameters (common::Status)",
    "Quantize": "EmbeddingStore::Quantize (common::Result)",
    "QuantizeTensor": "nn::QuantizeTensor (common::Result)",
    "QuantizeRow": "nn::quant::QuantizeRow (common::Status)",
    "Submit": "BatchQueue::Submit (future<TopKResult> w/ ServeStatus)",
    "SubmitWithDeadline": "BatchQueue::SubmitWithDeadline (future)",
    "Init": "CheckpointManager::Init (common::Status)",
    "Write": "CheckpointManager::Write (common::Status)",
}

FALLIBLE_RE = re.compile(
    r"\b(" + "|".join(sorted(FALLIBLE_CALLS)) + r")\s*\(")

# [[nodiscard]] anchors: (display-path suffix, regex that must match some
# line, human name). The attribute makes the compiler reject new dropped
# call sites forever — so losing it silently would rot the whole contract.
NODISCARD_ANCHORS = (
    ("src/common/status.h",
     re.compile(r"class\s+\[\[nodiscard\]\]\s+Status\b"), "common::Status"),
    ("src/common/status.h",
     re.compile(r"class\s+\[\[nodiscard\]\]\s+Result\b"), "common::Result"),
)
FUTURE_DECL_RE = re.compile(r"std::future\s*<\s*TopKResult\s*>\s+\w+\s*\(")
NODISCARD_RE = re.compile(r"\[\[nodiscard\]\]")

STMT_BOUNDARY = frozenset(";{}:)")


def _chain_start(text, pos):
    """Start offset of the receiver chain ending at `pos` (the callee
    name's first char): walks back over `a.b->c::` links and `(...)`
    groups of chained calls."""
    i = pos
    while True:
        j = i
        while j > 0 and text[j - 1] in " \t\n":
            j -= 1
        if j >= 2 and text[j - 2:j] in ("->", "::"):
            link = j - 2
        elif j >= 1 and text[j - 1] == ".":
            link = j - 1
        else:
            return i
        k = link
        while k > 0 and text[k - 1] in " \t\n":
            k -= 1
        if k >= 1 and text[k - 1] == ")":
            depth = 0
            k -= 1
            while k >= 0:
                if text[k] == ")":
                    depth += 1
                elif text[k] == "(":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k < 0:
                return i
        elif k >= 1 and (text[k - 1].isalnum() or text[k - 1] == "_"):
            while k > 0 and (text[k - 1].isalnum() or text[k - 1] == "_"):
                k -= 1
        else:
            return i
        i = k


def _match_paren(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def pass_discarded_status(found, sources):
    for sf in sources:
        text = "\n".join(sf.code)
        # line_of[i] = 1-based line containing offset i.
        line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                line_starts.append(i + 1)

        def line_of(offset):
            lo, hi = 0, len(line_starts) - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if line_starts[mid] <= offset:
                    lo = mid
                else:
                    hi = mid - 1
            return lo + 1

        for m in FALLIBLE_RE.finditer(text):
            name = m.group(1)
            start = _chain_start(text, m.start(1))
            j = start
            while j > 0 and text[j - 1] in " \t\n":
                j -= 1
            if j > 0 and text[j - 1] not in STMT_BOUNDARY:
                continue  # value consumed: return/assign/condition/arg
            before = text[:j].rstrip()
            if before.endswith("(void)"):
                continue  # sanctioned explicit discard
            if re.search(r"\b(?:return|case|goto|else|do)\s*$", before):
                continue
            open_paren = text.index("(", m.end(1) - 1)
            close = _match_paren(text, open_paren)
            if close < 0:
                continue
            k = close + 1
            while k < len(text) and text[k] in " \t\n":
                k += 1
            if k >= len(text) or text[k] != ";":
                continue  # chained (.ok(), .value(), ...) or non-statement
            lineno = line_of(m.start(1))
            emit(found, sf, lineno, "discarded-status",
                 f"dropped result of {FALLIBLE_CALLS[name]}")

        # Declaration side: the nodiscard anchors must still be present.
        for suffix, rx, label in NODISCARD_ANCHORS:
            if not sf.norm.endswith(suffix):
                continue
            if not any(rx.search(c) for c in sf.code):
                emit(found, sf, 1, "discarded-status",
                     f"{label} lost its [[nodiscard]] — dropped-status "
                     f"enforcement at the compiler is gone")
        if "/src/" in f"/{sf.norm}" and sf.norm.endswith((".h", ".hpp")):
            for idx, code in enumerate(sf.code):
                if FUTURE_DECL_RE.search(code):
                    context = "\n".join(sf.code[max(0, idx - 2):idx + 1])
                    if not NODISCARD_RE.search(context):
                        emit(found, sf, idx + 1, "discarded-status",
                             "future-returning serve API lacks "
                             "[[nodiscard]] — a dropped future loses its "
                             "ServeStatus outcome")


# ---------------------------------------------------------------------------
# Driver

def load_tu_list(root, build_dir):
    """TUs from the CMake-exported compile_commands.json, or None with a
    notice (graceful skip: the walk-based fallback still analyzes
    everything, it just cannot cross-check build membership)."""
    path = os.path.join(root, build_dir, "compile_commands.json")
    if not os.path.isfile(path):
        print(f"{TOOL}: no {os.path.relpath(path, root)} — run cmake "
              f"first for the compile-commands-driven TU list; falling "
              f"back to a source-tree walk", file=sys.stderr)
        return None
    try:
        with open(path, "r", encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, ValueError) as e:
        print(f"{TOOL}: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(fm.EXIT_USAGE)
    tus = set()
    for entry in entries:
        file_path = os.path.normpath(
            os.path.join(entry.get("directory", root), entry["file"]))
        tus.add(file_path)
    return tus


def main(argv):
    parser = argparse.ArgumentParser(prog=TOOL, add_help=True)
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tests)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: auto-detected)")
    parser.add_argument("--build-dir", default="build",
                        help="build tree holding compile_commands.json")
    parser.add_argument("--passes", default=",".join(ALL_PASSES),
                        help="comma-separated subset of: "
                             + ", ".join(ALL_PASSES))
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(f"{name}: {RULES[name]}")
        return fm.EXIT_CLEAN

    passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    for p in passes:
        if p not in ALL_PASSES:
            print(f"{TOOL}: unknown pass '{p}' (have: "
                  f"{', '.join(ALL_PASSES)})", file=sys.stderr)
            return fm.EXIT_USAGE

    root = args.root or _REPO_ROOT
    paths = args.paths or ["src", "tests"]

    files = fm.collect_files(paths, root, FIXTURE_DIR_MARKERS, TOOL,
                             fm.CXX_EXTENSIONS + CMAKE_SUFFIXES)
    sources = [SourceFile(full, rel) for full, rel in files]
    cxx_sources = [sf for sf in sources
                   if not sf.norm.endswith(CMAKE_SUFFIXES)]

    # compile_commands.json drives the TU cross-check: every in-scope .cc
    # must be part of the build, or the analyzer is reasoning about code
    # the build has silently dropped.
    found = []
    tus = load_tu_list(root, args.build_dir)
    if tus is not None:
        for sf in sources:
            if (sf.norm.startswith("src/") and sf.norm.endswith(".cc")
                    and os.path.normpath(sf.path) not in tus):
                found.append(fm.Finding(
                    sf.display, 1, "layering",
                    "translation unit missing from compile_commands.json "
                    "— not built, so no contract is enforced on it"))

    for sf in sources:
        scan_pragma_abuse(found, sf)
    if "lock-order" in passes:
        pass_lock_order(found, cxx_sources, root)
    if "layering" in passes:
        pass_layering(found, sources, root)
    if "discarded-status" in passes:
        pass_discarded_status(found, cxx_sources)

    return fm.report(found, RULES, len(sources), TOOL)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
