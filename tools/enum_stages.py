#!/usr/bin/env python3
"""Per-stage time and call counts of enum solves, for one or more checkouts.

    python3 tools/enum_stages.py --root ../old --root . --workload enum-n3 \
        --seed 1 --rounds 40

Each --root (repeatable; default: the checkout holding this script) is
imported into this one process as its own switchreg package, and the
enumeration_solve calls of the roots are interleaved on the instances of
a benchmark workload (its jobs that list enum, built by the first root's
benchmark/workloads.py), the roots' order alternating by round. Solves in
one process side by side give stable ratios where separate benchmark runs
drift with the machine's speed.

Each solve is timed with the stage functions wrapped by name on the
root's solvers module, as the benchmark's tracer wraps its layers:
enumerate_linear_dichotomies (enumeration), CandidateStream (the stream
less its enumeration and search: rest of the stream), _partition_search,
_region_costs, _table, _fit_masks (the re-fit) and _least; other is the
solve's time outside them. Each stage's line gives its median µs per solve
and its calls per solve, the median count of the interpreter's call and
C call events (sys.setprofile) inside it over one untimed, unwrapped solve
of each instance. Last comes whether every report is the same, bit for bit
(tools/report_digest.py's digest), at every root. BLAS thread pools are
pinned to one thread, as in benchmark/run.py.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# (stage, name on the solvers module), outermost first: the stream holds
# the enumeration and the search
STAGES = (("stream", "CandidateStream"),
          ("enumeration", "enumerate_linear_dichotomies"),
          ("search", "_partition_search"),
          ("region costs", "_region_costs"),
          ("table", "_table"),
          ("re-fit", "_fit_masks"),
          ("_least", "_least"))
ROWS = ("enumeration", "rest of stream", "search", "region costs", "table",
        "re-fit", "_least", "other", "total")
_PACKAGES = ("switchreg", "workloads")


def load(root: Path):
    """root's switchreg.solvers and benchmark/workloads.py as fresh modules.
    sys.modules and sys.path are restored afterwards, so several checkouts
    load side by side, each module reading its own package."""
    def ours():
        return [k for k in sys.modules if k.split(".")[0] in _PACKAGES]

    saved = {k: sys.modules.pop(k) for k in ours()}
    sys.path[:0] = [str(root / "src"), str(root / "benchmark")]
    try:
        return (importlib.import_module("switchreg.solvers"),
                importlib.import_module("workloads"))
    finally:
        del sys.path[:2]
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def _timed_solve(solvers, data, n, loss):
    """One enumeration_solve with the stages wrapped: (report, {stage: s})."""
    spent = dict.fromkeys([s for s, _ in STAGES] + ["total"], 0.0)
    originals = {name: getattr(solvers, name) for _, name in STAGES}

    def wrapped(stage, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - t0
        return timed

    try:
        for stage, name in STAGES:
            setattr(solvers, name, wrapped(stage, originals[name]))
        t0 = time.perf_counter()
        report = solvers.enumeration_solve(data, n, loss)
        spent["total"] = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(solvers, name, fn)
    return report, _rows(spent)


def _counted_solve(solvers, data, n, loss):
    """{stage: calls}: the call and C call events of one unwrapped solve,
    each counted in the innermost stage running."""
    codes = {}
    for stage, name in STAGES:
        fn = getattr(solvers, name)         # CandidateStream: its __init__
        codes[(fn.__init__ if isinstance(fn, type) else fn).__code__] = stage
    counts = dict.fromkeys([s for s, _ in STAGES] + ["total"], 0)
    open_ = [(None, "total")]                   # (frame, stage) running

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            open_.append((frame, codes[frame.f_code]))
        elif event == "return" and frame is open_[-1][0]:
            open_.pop()
        if event in ("call", "c_call"):
            counts[open_[-1][1]] += 1

    sys.setprofile(profile)
    try:
        solvers.enumeration_solve(data, n, loss)
    finally:
        sys.setprofile(None)
    counts["total"] = sum(counts.values())
    # inclusive, as the timed stages are: the stream holds its children
    counts["stream"] += counts["enumeration"] + counts["search"]
    return _rows(counts)


def _rows(spent):
    """ROWS from inclusive stage values and the solve's total."""
    rows = dict(spent)
    rows["rest of stream"] = (spent["stream"] - spent["enumeration"]
                              - spent["search"])
    rows["other"] = spent["total"] - sum(
        spent[s] for s in ("stream", "region costs", "table", "re-fit",
                           "_least"))
    return {row: rows[row] for row in ROWS}


def measure(roots, workload: str, seed: int, rounds: int):
    """({root: {row: [µs per solve]}}, {root: {row: [calls per solve]}},
    identical): every enum job of the workload's rounds solved at every
    root, interleaved, and whether all roots' reports agree bit for bit."""
    spec = importlib.util.spec_from_file_location(
        "report_digest", Path(__file__).resolve().parent / "report_digest.py")
    report_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_digest)
    loaded = [load(root) for root in roots]
    jobs = [job for jobs in loaded[0][1].build_rounds(workload, seed, rounds)
            for job in jobs if "enum" in job.methods]
    # each root takes the instances as its own Dataset and LossModel
    args = [[(solvers.Dataset(job.data.x, job.data.y), job.n,
              solvers.LossModel(job.loss.kind)) for job in jobs]
            for solvers, _ in loaded]
    times = [{row: [] for row in ROWS} for _ in roots]
    calls = [{row: [] for row in ROWS} for _ in roots]
    digests = [[] for _ in roots]
    per_round = len(jobs) // rounds
    for i in range(len(jobs)):
        order = range(len(roots))
        for k in (order if i // per_round % 2 == 0 else reversed(order)):
            report, spent = _timed_solve(loaded[k][0], *args[k][i])
            digests[k].append(report_digest.digest(report))
            for row, s in spent.items():
                times[k][row].append(s * 1e6)
    for k, (solvers, _) in enumerate(loaded):
        for a in args[k]:
            for row, c in _counted_solve(solvers, *a).items():
                calls[k][row].append(c)
    return times, calls, all(d == digests[0] for d in digests)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", action="append", type=Path,
                   help="checkout to import src/ and benchmark/ from "
                        "(repeatable; default: this one)")
    p.add_argument("--workload", default="enum-n3")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=40)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be positive")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    roots = [r.resolve() for r in args.root
             or [Path(__file__).resolve().parent.parent]]
    times, calls, identical = measure(roots, args.workload, args.seed,
                                      args.rounds)
    print(f"# {args.workload} seed {args.seed}, {args.rounds} rounds, "
          f"{len(times[0]['total'])} solves per root; median per solve")
    for k, root in enumerate(roots):
        print(f"# root {k}: {root}")
    print(f"{'stage':<16}" + "".join(f"{f'µs {k}':>10}{f'calls {k}':>10}"
                                     for k in range(len(roots))))
    for row in ROWS:
        print(f"{row:<16}" + "".join(
            f"{statistics.median(t[row]):>10.1f}"
            f"{statistics.median(c[row]):>10.0f}"
            for t, c in zip(times, calls)))
    print(f"reports identical: {'yes' if identical else 'NO'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
