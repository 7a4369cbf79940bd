"""Spans around the calls that switchreg makes between its layers.

A traced solve replaces the names that ``switchreg.solvers`` and
``switchreg.hardness`` look up at call time with wrappers that record one
span per call (name, start, end, parent span, solve id, and a few counts read
off the arguments and results), then puts the originals back. Nothing under
``src/`` knows about it. ``layer_totals`` folds the spans of one solve into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb

import numpy as np

# Spans that stand for a whole solver run. A fit or refine span belongs to
# the layer of its nearest enclosing solver span: the same helpers serve
# enum's candidate evaluation, brute's labeling loop and altmin's restarts.
SOLVER_SPANS = ("enum", "brute", "noiseless", "altmin")
_FIT_LAYER = {"enum": "solvers.eval", "brute": "solvers.brute",
              "altmin": "solvers.altmin"}

# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "datasets.generate.s": "s",
    "geometry.gp_check.s": "s",
    "geometry.gp_check.subsets": "count",
    "geometry.dichotomies.s": "s",
    "geometry.dichotomies.count": "count",
    "geometry.branch_attempts": "count",
    "geometry.branch_dropped": "count",
    "geometry.cover_shortfall": "count",
    "solvers.stream.build.s": "s",
    "solvers.stream.pair_products": "count",
    "solvers.stream.iter.s": "s",
    "solvers.stream.combinations": "count",
    "solvers.stream.candidates": "count",
    "solvers.stream.yield": "ratio",
    "solvers.stream.tie_truncations": "count",
    "solvers.eval.s": "s",
    "solvers.eval.refine.calls": "count",
    "solvers.eval.refine.half_steps": "count",
    "solvers.eval.refine.s": "s",
    "solvers.eval.fit.calls": "count",
    "solvers.eval.fit.squared.s": "s",
    "solvers.eval.fit.absolute.s": "s",
    "solvers.eval.candidates_per_s": "1/s",
    "solvers.eval.optimal_with_warnings": "count",
    "solvers.brute.s": "s",
    "solvers.brute.labelings": "count",
    "solvers.noiseless.s": "s",
    "solvers.noiseless.systems": "count",
    "solvers.altmin.s": "s",
    "solvers.altmin.refine.half_steps": "count",
    "hardness.decide.s": "s",
    "hardness.decisions": "count",
    # set by run.py: traced minus untraced wall time of the same calls, and
    # the two shares that are 0 on some workload (so not end-to-end gates)
    "trace.overhead_s": "s",
    "failed_share": "ratio",
    "certified_share": "ratio",
}


def cover_count(N: int, m: int) -> int:
    """Homogeneous linear dichotomies of N points in general position in R^m.

    Cover (1965): C(N, m) = 2 * sum_{k < m} binom(N - 1, k).
    """
    return 2 * sum(comb(N - 1, k) for k in range(m))


def canonical_labelings(N: int, n: int) -> int:
    """Labelings with modes numbered by first occurrence, at most n modes.

    These are the set partitions of N points into at most n blocks, the sum
    of Stirling numbers of the second kind S(N, k) for k = 1..n; brute force
    tries each once.
    """
    row = [1] + [0] * n                          # S(0, k)
    for _ in range(N):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, n + 1)]
    return sum(row[1:])


@dataclass
class Span:
    name: str
    start: float
    solve: int
    parent: int | None          # index of the enclosing span in Tracer.spans
    owner: str                  # nearest enclosing solver span ("" if none)
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Single-threaded span recorder; spans of one solve share ``solve``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        owner = name if name in SOLVER_SPANS else (
            self.spans[parent].owner if parent is not None else "")
        sp = Span(name, time.perf_counter(), self.solve, parent, owner)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        return sp

    def end(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, sp.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(sp.end - sp.start - covered)
    return out


# ---------------------------------------------------------------------------
# Wrappers


def _wrap(tracer: Tracer, name: str, fn, info=None):
    """fn recorded as span `name`; info(args, kwargs, result) adds counts."""
    def traced(*args, **kwargs):
        sp = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sp)
        if info is not None:
            sp.info = info(args, kwargs, result)
        return result
    return traced


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _dichotomy_info(args, kwargs, result):
    N, m = np.shape(_arg(args, kwargs, 0, "points"))
    return {"count": len(result), "expected": cover_count(N, m),
            "attempts": result.branch_attempts,
            "dropped": result.branch_dropped}


def _solver_info(args, kwargs, result):
    return {"status": result.status, "warnings": result.warnings}


def _brute_info(args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    return {"labelings": canonical_labelings(data.N, _arg(args, kwargs, 1, "n"))}


def _noiseless_info(args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    return {"systems": comb(data.N, data.d)}


def _traced_stream(tracer: Tracer, base):
    class TracedCandidateStream(base):
        def __init__(self, *args, **kwargs):
            sp = tracer.begin("stream.build")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.end(sp)
            P = len(self.pair_products)
            sp.info = {"pair_products": P,
                       "combinations": P ** (self.n * (self.n - 1) // 2)}

        def __iter__(self):
            sp = tracer.begin("stream.iter")
            yielded = 0
            try:
                for lab in super().__iter__():
                    yielded += 1
                    yield lab
            finally:
                tracer.end(sp)
                sp.info = {"candidates": yielded,
                           "tie_truncations": self.tie_truncations}

    return TracedCandidateStream


def _wrappers(tracer: Tracer, solvers, hardness) -> dict:
    """(module, name) -> replacement, for every name the trace covers."""
    def solve(name, fn, info=_solver_info):
        return _wrap(tracer, name, fn, info)
    S, H = solvers, hardness
    return {
        (S, "check_general_position"): _wrap(
            tracer, "gp_check", S.check_general_position,
            lambda a, k, r: {"subsets": r.checked_subsets}),
        (S, "enumerate_linear_dichotomies"): _wrap(
            tracer, "dichotomies", S.enumerate_linear_dichotomies,
            _dichotomy_info),
        (S, "CandidateStream"): _traced_stream(tracer, S.CandidateStream),
        (S, "refine_alternate"): _wrap(
            tracer, "refine", S.refine_alternate,
            lambda a, k, r: {"half_steps": len(r.costs) - 1}),
        (S, "solve_mode_regression"): _wrap(
            tracer, "fit", S.solve_mode_regression,
            lambda a, k, r: {"loss": _arg(a, k, 2, "loss").kind}),
        (S, "enumeration_solve"): solve("enum", S.enumeration_solve),
        (S, "brute_force_solve"): solve("brute", S.brute_force_solve,
                                        _brute_info),
        (S, "noiseless_solve"): solve("noiseless", S.noiseless_solve,
                                      _noiseless_info),
        (S, "altmin_solve"): solve("altmin", S.altmin_solve),
        (H, "enumeration_solve"): solve("enum", H.enumeration_solve),
        (H, "brute_force_solve"): solve("brute", H.brute_force_solve,
                                        _brute_info),
        (H, "noiseless_solve"): solve("noiseless", H.noiseless_solve,
                                      _noiseless_info),
        (H, "decide_threshold"): _wrap(tracer, "decide", H.decide_threshold),
    }


@contextmanager
def traced(tracer: Tracer, solvers, hardness):
    """Install the wrappers for the duration of the block, then restore.

    Building the wrappers reads every name first, so a missing one raises
    AttributeError before anything is replaced: a renamed entry point fails
    the traced run instead of silently reading as zero.
    """
    replacements = _wrappers(tracer, solvers, hardness)
    originals = {key: getattr(*key) for key in replacements}
    try:
        for (mod, name), fn in replacements.items():
            setattr(mod, name, fn)
        yield tracer
    finally:
        for (mod, name), fn in originals.items():
            setattr(mod, name, fn)


# ---------------------------------------------------------------------------
# Aggregation


def layer_totals(spans: list[Span], totals: dict) -> None:
    """Add the per-layer counts and self times of `spans` into `totals`.

    Every ".s" entry is self time, with two deliberate inclusions that the
    metric definitions ask for: solvers.eval.s is the enumeration_solve span
    minus its stream spans (so its refine and fit children count), and
    solvers.brute.s / solvers.altmin.s include the fits and refines those
    solvers run themselves.
    """
    def add(key, v):
        totals[key] = totals.get(key, 0) + v

    for sp, own in zip(spans, self_times(spans)):
        name, info = sp.name, sp.info
        if name == "gp_check":
            add("geometry.gp_check.s", own)
            add("geometry.gp_check.subsets", info.get("subsets", 0))
        elif name == "dichotomies":
            add("geometry.dichotomies.s", own)
            add("geometry.dichotomies.count", info.get("count", 0))
            add("geometry.branch_attempts", info.get("attempts", 0))
            add("geometry.branch_dropped", info.get("dropped", 0))
            if info and info["count"] < info["expected"]:
                add("geometry.cover_shortfall", 1)
        elif name == "stream.build":
            add("solvers.stream.build.s", own)
            add("solvers.stream.pair_products", info.get("pair_products", 0))
            add("solvers.stream.combinations", info.get("combinations", 0))
        elif name == "stream.iter":
            add("solvers.stream.iter.s", own)
            add("solvers.stream.candidates", info.get("candidates", 0))
            add("solvers.stream.tie_truncations",
                info.get("tie_truncations", 0))
        elif name == "enum":
            add("solvers.eval.s", own)
            if info.get("status") == "optimal" and any(
                    "general position" in w for w in info["warnings"]):
                add("solvers.eval.optimal_with_warnings", 1)
        elif name in ("fit", "refine"):
            layer = _FIT_LAYER[sp.owner]
            add(layer + ".s", own)
            if name == "refine":
                if layer == "solvers.eval":
                    add("solvers.eval.refine.s", own)
                    add("solvers.eval.refine.calls", 1)
                add(layer + ".refine.half_steps", info.get("half_steps", 0))
            elif layer == "solvers.eval":
                add("solvers.eval.fit.calls", 1)
                add(f"solvers.eval.fit.{info.get('loss', 'squared')}.s", own)
        elif name == "brute":
            add("solvers.brute.s", own)
            add("solvers.brute.labelings", info.get("labelings", 0))
        elif name == "noiseless":
            add("solvers.noiseless.s", own)
            add("solvers.noiseless.systems", info.get("systems", 0))
        elif name == "altmin":
            add("solvers.altmin.s", own)
        elif name == "decide":
            add("hardness.decide.s", own)
            add("hardness.decisions", 1)


def finish_totals(totals: dict) -> dict:
    """Every per-layer metric (run.py fills in the ones spans cannot give),
    with the two ratios derived from their bases."""
    out = {k: totals.get(k, 0) for k in LAYER_METRICS}
    combos = out["solvers.stream.combinations"]
    out["solvers.stream.yield"] = (
        out["solvers.stream.candidates"] / combos if combos else 0.0)
    ev = out["solvers.eval.s"]
    out["solvers.eval.candidates_per_s"] = (
        out["solvers.stream.candidates"] / ev if ev > 0 else 0.0)
    return out
