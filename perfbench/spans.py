"""Tracing from outside the program, for the benchmark's traced run.

The tracer wraps public queerhom functions after the package is imported.
A wrapped function either opens a span (name, start, end, parent, one trace
id per CLI invocation) or, for the hot leaf calls made hundreds of thousands
of times per run, adds to a per-span counter (calls, seconds, calls that
returned something truthy) instead of keeping one span per call.  A leaf's
time counts as covered time of the span it ran in, so self time, a span's
duration minus the time its children cover, stays exact.

Functions imported by name into other modules (``from .chevalley import
ce_h2`` in theorems, the ``SCENARIOS`` table, ...) are replaced at every
import site; ``coverage_gaps`` reports any reference to an unwrapped
original that is left.  Spans stay in memory until the child returns them.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

_clock = time.perf_counter

# (module, attribute, span name).  Methods are patched on their class.
SPANS = (
    ("queerhom.cli", "main", "cli.main"),
    ("queerhom.chevalley", "ce_h2", "chevalley.ce_h2"),
    ("queerhom.linalg", "kernel", "linalg.kernel"),
    ("queerhom.lie", "build_q", "lie.build_q"),
    ("queerhom.lie", "build_gl", "lie.build_gl"),
    ("queerhom.lie", "build_sq_by_characterization", "lie.build_sq_by_characterization"),
    ("queerhom.lie", "induced_lie", "lie.induced_lie"),
    ("queerhom.lie", "quotient_lie", "lie.quotient_lie"),
    ("queerhom.lie", "lie_tensor", "lie.lie_tensor"),
    ("queerhom.lie", "VerifiedHomomorphism.__init__", "lie.VerifiedHomomorphism"),
    ("queerhom.cyclic", "hc1", "cyclic.hc1"),
    ("queerhom.cyclic", "build_shift_iso", "cyclic.shift_iso"),
    ("queerhom.algebras", "build_builtin", "algebras.build_builtin"),
    ("queerhom.algebras", "tensor", "algebras.tensor"),
)
LEAVES = (
    ("queerhom.linalg", "Echelon.insert", "linalg.insert"),
    ("queerhom.linalg", "Echelon.reduce", "linalg.reduce"),
    ("queerhom.linalg", "Echelon.rref_rows", "linalg.rref_rows"),
    ("queerhom.linalg", "Subspace.reduce", "linalg.subspace_reduce"),
    ("queerhom.linalg", "Subspace.coords_of", "linalg.coords_of"),
    ("queerhom.chevalley", "CEComplex.d3_column", "chevalley.d3_column"),
)
CE_H2 = "chevalley.ce_h2"


class Span:
    __slots__ = (
        "trace", "id", "parent", "name", "start", "end", "ok",
        "covered", "leaves", "counts", "echelons",
    )

    def __init__(self, trace, sid, parent, name):
        self.trace = trace
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = _clock()
        self.end = None
        self.ok = None
        self.covered = 0.0
        self.leaves = {}
        self.counts = {}
        self.echelons = []

    def to_dict(self):
        return {
            "trace": self.trace,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "ok": self.ok,
            "covered": self.covered,
            "leaves": self.leaves,
            "counts": self.counts,
        }


def _echelon_counts(span):
    """Pivots, stored entries and, over Q, coefficient size of the echelons
    ce_h2 built itself, read when it returns."""
    pivots = nnz = q_entries = nonint = height = 0
    for ech in span.echelons:
        pivots += len(ech.pivots)
        for row in ech.pivots.values():
            nnz += len(row)
            for v in row.values():
                if type(v) is Fraction:
                    q_entries += 1
                    if v.denominator != 1:
                        nonint += 1
                    height = max(height, abs(v.numerator), v.denominator)
    span.echelons = []
    span.counts.update(
        pivots=pivots, nnz=nnz, q_entries=q_entries, nonint=nonint, max_height=height
    )


def _after_ce_h2(span, result):
    st = result.stats
    span.counts["lam3_dim"] = st["lam3_dim"]
    span.counts["im_rank"] = st.get("im_rank_parity0", 0) + st.get("im_rank_parity1", 0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.trace = 0
        self._originals = []
        self._methods = []

    def new_trace(self):
        self.trace += 1

    def _open(self, name):
        parent = self.stack[-1].id if self.stack else None
        span = Span(self.trace, len(self.spans), parent, name)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span, ok):
        span.end = _clock()
        span.ok = ok
        self.stack.pop()
        if self.stack:
            self.stack[-1].covered += span.end - span.start
        if span.name == CE_H2:
            _echelon_counts(span)

    def _span(self, name, fn):
        after = _after_ce_h2 if name == CE_H2 else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, False)
                raise
            if after is not None:
                after(span, result)
            self._close(span, True)
            return result

        return wrapper

    def _leaf(self, name, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            top = stack[-1]
            top.covered += dt
            stat = top.leaves.get(name)
            if stat is None:
                stat = top.leaves[name] = [0, 0.0, 0]
            stat[0] += 1
            stat[1] += dt
            if result:
                stat[2] += 1
            return result

        return wrapper

    def install(self):
        """Wrap every target at every import site; call after importing queerhom.cli."""
        from queerhom.linalg import Echelon
        from queerhom.scenarios import SCENARIOS

        replace = {}
        for specs, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for modname, path, name in specs:
                owner = sys.modules[modname]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                wrapper = make(name, orig)
                if cls_path:
                    setattr(owner, attr, wrapper)
                    self._methods.append((owner, attr, wrapper))
                else:
                    replace[id(orig)] = (orig, wrapper)
        for key, fn in SCENARIOS.items():
            replace[id(fn)] = (fn, self._span("scenarios." + key, fn))

        orig_init = Echelon.__init__
        stack = self.stack

        @functools.wraps(orig_init)
        def init(ech, *args, **kwargs):
            orig_init(ech, *args, **kwargs)
            if stack and stack[-1].name == CE_H2:
                stack[-1].echelons.append(ech)

        Echelon.__init__ = init
        self._methods.append((Echelon, "__init__", init))

        self._originals = [orig for orig, _ in replace.values()]
        for ns in _namespaces():
            for key, value in list(ns.items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[key] = hit[1]

    def coverage_gaps(self):
        """Names through which an unwrapped original is still reachable."""
        ids = {id(o) for o in self._originals}
        gaps = [
            "%s[%r]" % (where, key)
            for where, ns in _namespaces(labelled=True)
            for key, value in ns.items()
            if id(value) in ids
        ]
        gaps += [
            "%s.%s" % (cls.__qualname__, attr)
            for cls, attr, wrapper in self._methods
            if cls.__dict__.get(attr) is not wrapper
        ]
        return gaps


def _namespaces(labelled=False):
    """Global namespaces of queerhom modules and the module-level dicts in them."""
    for modname, mod in sorted(sys.modules.items()):
        if modname != "queerhom" and not modname.startswith("queerhom."):
            continue
        ns = vars(mod)
        tables = [
            (modname + "." + k, v)
            for k, v in ns.items()
            if type(v) is dict and not k.startswith("__")
        ]
        for where, table in [(modname, ns)] + tables:
            yield (where, table) if labelled else table


# ------------------------------------------------------------ layer metrics

SCENARIO_NAMES = ("h2-main", "qtogl-sqrt-1", "loop-iso", "perfectness", "iso-queer-gl", "hc1-shift")
LIE_SPANS = (
    "build_q", "build_gl", "build_sq_by_characterization", "induced_lie",
    "quotient_lie", "lie_tensor", "VerifiedHomomorphism",
)
LAYERS = ("cli", "scenarios", "chevalley", "linalg", "lie", "cyclic", "algebras")

# Every per-layer metric with its unit, in print order.
PER_LAYER = (
    [
        ("chevalley.ce_h2_s", "s"),
        ("chevalley.ce_h2_calls", "count"),
        ("chevalley.kernel_s", "s"),
        ("chevalley.boundaries_s", "s"),
        ("chevalley.quotient_s", "s"),
        ("chevalley.lam3_dim", "count"),
        ("chevalley.d3_cols", "count"),
        ("chevalley.d3_nonzero_cols", "count"),
        ("chevalley.insert_yield", "ratio"),
        ("chevalley.d3_cols_per_s", "1/s"),
    ]
    + [
        (m, u)
        for op in ("insert", "reduce", "rref_rows", "kernel", "subspace_reduce", "coords_of")
        for m, u in (("linalg.%s_calls" % op, "count"), ("linalg.%s_s" % op, "s"))
    ]
    + [
        ("linalg.pivots", "count"),
        ("linalg.nnz", "count"),
        ("scalars.nonint_share", "ratio"),
        ("scalars.max_height", "count"),
    ]
    + [("lie.%s_s" % n, "s") for n in LIE_SPANS]
    + [
        ("lie.build_gl_calls", "count"),
        ("cyclic.hc1_s", "s"),
        ("cyclic.shift_iso_s", "s"),
        ("cyclic.hc1_calls", "count"),
        ("algebras.build_s", "s"),
    ]
    + [("scenarios.%s_s" % n, "s") for n in SCENARIO_NAMES]
    + [("%s.self_s" % layer, "s") for layer in LAYERS]
    + [
        ("trace.spans", "count"),
        ("trace.verify_s", "s"),
        ("trace.untraced_verify_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)

# Metrics that are exact functions of the program's work: they must repeat
# bit for bit between runs of the same code on the same input.
EXACT = tuple(m for m, u in PER_LAYER if u in ("count", "ratio"))


def layer_metrics(spans, reports):
    """Per-layer metrics of one traced pass (all its invocations).

    ``spans`` are Span.to_dict() records; ``reports`` the report JSON of
    each invocation, whose ``h2.*`` timings give the ce_h2 phases.  The
    caller adds the run-level ``trace.*`` timings.
    """
    by_id = {(s["trace"], s["id"]): s for s in spans}
    calls = defaultdict(int)
    secs = defaultdict(float)
    self_s = defaultdict(float)
    leaf = defaultdict(lambda: [0, 0.0, 0])
    counts = defaultdict(int)
    outer_algebras = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        name = s["name"]
        layer = name.split(".")[0]
        calls[name] += 1
        secs[name] += dur
        self_s[layer] += dur - s["covered"]
        for lname, (n, t, truthy) in s["leaves"].items():
            acc = leaf[lname]
            acc[0] += n
            acc[1] += t
            acc[2] += truthy
            self_s[lname.split(".")[0]] += t
        for k, v in s["counts"].items():
            counts[k] = max(counts[k], v) if k == "max_height" else counts[k] + v
        if layer == "algebras" and not _has_ancestor_in(s, "algebras", by_id):
            outer_algebras += dur

    phases = defaultdict(float)
    for rep in reports:
        for k, v in rep.get("timings", {}).items():
            if k.startswith("h2.") and "_parity" in k:
                phases[k[3:].split("_parity")[0]] += v

    d3_cols, _, d3_nonzero = leaf["chevalley.d3_column"]
    m = {
        "chevalley.ce_h2_s": secs[CE_H2],
        "chevalley.ce_h2_calls": calls[CE_H2],
        "chevalley.kernel_s": phases["kernel"],
        "chevalley.boundaries_s": phases["boundaries"],
        "chevalley.quotient_s": phases["quotient"],
        "chevalley.lam3_dim": counts["lam3_dim"],
        "chevalley.d3_cols": d3_cols,
        "chevalley.d3_nonzero_cols": d3_nonzero,
        "chevalley.insert_yield": counts["im_rank"] / d3_nonzero if d3_nonzero else 0.0,
        "chevalley.d3_cols_per_s": d3_cols / phases["boundaries"] if phases["boundaries"] else 0.0,
        "linalg.kernel_calls": calls["linalg.kernel"],
        "linalg.kernel_s": secs["linalg.kernel"],
        "linalg.pivots": counts["pivots"],
        "linalg.nnz": counts["nnz"],
        "scalars.nonint_share": counts["nonint"] / counts["q_entries"] if counts["q_entries"] else 0.0,
        "scalars.max_height": counts["max_height"],
        "lie.build_gl_calls": calls["lie.build_gl"],
        "cyclic.hc1_s": secs["cyclic.hc1"],
        "cyclic.shift_iso_s": secs["cyclic.shift_iso"],
        "cyclic.hc1_calls": calls["cyclic.hc1"],
        "algebras.build_s": outer_algebras,
        "trace.spans": len(spans),
    }
    for op in ("insert", "reduce", "rref_rows", "subspace_reduce", "coords_of"):
        n, t, _ = leaf["linalg." + op]
        m["linalg.%s_calls" % op] = n
        m["linalg.%s_s" % op] = t
    for n in LIE_SPANS:
        m["lie.%s_s" % n] = secs["lie." + n]
    for n in SCENARIO_NAMES:
        m["scenarios.%s_s" % n] = secs["scenarios." + n]
    for layer in LAYERS:
        m["%s.self_s" % layer] = self_s[layer]
    return m


def _has_ancestor_in(span, layer, by_id):
    parent = span["parent"]
    while parent is not None:
        p = by_id[(span["trace"], parent)]
        if p["name"].split(".")[0] == layer:
            return True
        parent = p["parent"]
    return False
