#!/usr/bin/env python3
"""switchreg benchmark: one workload per run, untraced or traced.

    python3 benchmark/run.py --workload enum-gp --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ./src; nothing is
installed). Single process, single thread: BLAS/OpenMP pools are pinned to
one thread inside this process before numpy loads.

A run solves whole rounds of seeded instances (one instance of every class
per round). --seconds sets how many: round(seconds / ROUND_S[workload]),
ROUND_S being what one round takes on a 2-core x86 reference machine, so a
run lasts about --seconds there. The work is fixed for a (workload, seed,
seconds) triple, so two commits solve the same instances. --trace 0 times
every call, checks every output and reports the end-to-end metrics, with
times scaled to the reference machine's speed as measured by speed_probe()
(the raw wall-clock values are printed too).
--trace 1 solves half as many rounds, each call once untraced and once with
the layer wrappers of tracing.py installed, checks the outputs, cross-checks
the traced counts against the reports, and reports the per-layer metrics and
the tracing overhead. Human-readable lines (prefixed "#") come first; the
last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("enum-gp", "enum-n3", "grid-oracle")
MIN_CALLS = 100          # so that at least 10 samples lie beyond p90
SETUP_SAMPLES = 5        # this process plus four fresh interpreters
# Seconds one untraced round takes on the reference machine.
ROUND_S = {"enum-gp": 1.05, "enum-n3": 1.55, "grid-oracle": 2.6}
# speed_probe() on the reference machine when it runs at full speed. Solve
# times are reported scaled to that speed: raw * PROBE_REF_S / probe median.
PROBE_REF_S = 0.0016
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples it came from."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    k = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[k - 1], len(xs)


@dataclass
class Call:
    method: str
    wall: float
    outcome: object              # SolveReport, ThresholdDecision or exception
    problem: tuple | None        # (kind, reason) from workloads.check_job


def timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:     # a raising solve is a counted failure
        out = exc
    return out, time.perf_counter() - t0


def setup(workload: str, seed: int, seconds: float):
    """Import switchreg from ./src and build the instance pool, timed."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "switchreg" / "__init__.py").is_file():
        sys.exit(f"error: {src}/switchreg not found; run from a checkout "
                 f"of the repository")
    sys.path[:0] = [str(src), str(HERE)]
    import workloads
    import switchreg
    if Path(switchreg.__file__).resolve().parent != src / "switchreg":
        sys.exit(f"error: imported switchreg from {switchreg.__file__}, "
                 f"not from {src}")
    t1 = time.perf_counter()
    pool = workloads.build_rounds(
        workload, seed, max(1, round(seconds / ROUND_S[workload])))
    per_round = sum(len(job.methods) for job in pool[0])
    if len(pool) * per_round < MIN_CALLS:
        pool = workloads.build_rounds(workload, seed,
                                      math.ceil(MIN_CALLS / per_round))
    t2 = time.perf_counter()
    return workloads, pool, t2 - t0, t2 - t1


def setup_in_fresh_interpreter(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    setup_s, probe_s = done.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(probe_s)


def speed_probe() -> float:
    """Wall time of a fixed pure-Python loop.

    It is the benchmark's own code, so it measures how fast the machine runs
    right now, not the program. On a shared machine that speed drifts by up
    to half over minutes; of the kernels tried, a plain interpreter loop
    tracked the solve times best.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(25_000):
        s += i * i
    return time.perf_counter() - t0


def run_untraced(wl, pool):
    """Time every call; probe the machine's speed before every job."""
    calls: list[Call] = []
    probes = []
    for jobs in pool:
        for job in jobs:
            probes.append(speed_probe())
            outcomes, walls = {}, {}
            for m in job.methods:
                outcomes[m], walls[m] = timed(wl.call, job, m)
            problems = wl.check_job(job, outcomes)
            calls += [Call(m, walls[m], outcomes[m], problems[m])
                      for m in job.methods]
    return calls, statistics.median(probes)


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a.cost == b.cost


def run_traced(wl, pool):
    """Each call untraced and traced, in alternating order.

    Returns the untraced calls, the per-layer totals of the traced ones, the
    tracing overhead (traced minus untraced wall time) and any failed
    cross-check between the two runs or between traced counts and reports.
    """
    import tracing
    tracer = tracing.Tracer()
    totals: dict = {}
    reported = dict.fromkeys(wl.solvers.SOLVER_METHODS, 0)
    calls: list[Call] = []
    plain = traced = 0.0
    mismatches = []
    for jobs in pool:
        for job in jobs:
            outcomes, walls = {}, {}
            for m in job.methods:
                tracer.solve += 1
                if tracer.solve % 2:
                    outcomes[m], walls[m] = timed(wl.call, job, m)
                with tracing.traced(tracer, wl.solvers, wl.hardness):
                    out, wall = timed(wl.call, job, m)
                if not tracer.solve % 2:
                    outcomes[m], walls[m] = timed(wl.call, job, m)
                tracing.layer_totals(tracer.spans, totals)
                tracer.spans.clear()
                plain += walls[m]
                traced += wall
                if not _same(outcomes[m], out):
                    mismatches.append(f"{job.label} {m}: traced call "
                                      f"returned a different result")
                elif not isinstance(out, Exception):
                    reported[m] += wl.report_of(out).candidates_examined
            problems = wl.check_job(job, outcomes)
            calls += [Call(m, walls[m], outcomes[m], problems[m])
                      for m in job.methods]
    layers = tracing.finish_totals(totals)
    for method, metric in (("enum", "solvers.stream.combinations"),
                           ("brute", "solvers.brute.labelings"),
                           ("noiseless", "solvers.noiseless.systems")):
        if layers[metric] != reported[method]:
            mismatches.append(f"{metric} = {layers[metric]} but {method} "
                              f"reports sum to {reported[method]}")
    return calls, layers, traced - plain, mismatches


def outcome_metrics(wl, calls: list[Call]) -> dict:
    """Shares and known-defect counts that both modes print."""
    enum = [c for c in calls if c.method == "enum"]
    optimal = [c for c in enum if c.problem is None
               and wl.report_of(c.outcome).status == "optimal"]
    return {
        "failed_share": sum(c.problem is not None for c in calls) / len(calls),
        "certified_share": len(optimal) / len(enum) if enum else 0.0,
        "enum_calls": len(enum),
        "enum_origin_errors": sum(isinstance(c.outcome, ValueError)
                                  and "origin" in str(c.outcome) for c in enum),
        "enum_optimal_with_gp_warning": sum(
            any("general position" in w
                for w in wl.report_of(c.outcome).warnings) for c in optimal),
    }


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": git_sha(), "threads_pinned": list(THREAD_VARS)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    wl, pool, setup_s, build_s = setup(args.workload, args.seed, args.seconds)
    setup_probe = statistics.median(speed_probe() for _ in range(5))
    if args.setup_only:
        print(repr(setup_s), repr(setup_probe))
        return 0

    info = provenance(args)
    if args.trace:
        calls, layers, overhead, mismatches = run_traced(
            wl, pool[:max(1, len(pool) // 2)])
    else:
        calls, probe_s = run_untraced(wl, pool)
        samples = [(setup_s, setup_probe)] + [
            setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]
        mismatches = []
    shares = outcome_metrics(wl, calls)
    failed = [c for c in calls if c.problem is not None]
    wrong = [c for c in failed if c.problem[0] == "wrong"]

    print("# provenance " + json.dumps(info))
    for c in failed[:5]:
        print(f"# failed: {c.method}: {c.problem[1][:160]}")
    for m in mismatches:
        print(f"# trace check failed: {m}")
    print(f"# known defect: enum raised on a zero regressor in "
          f"{shares['enum_origin_errors']} of {shares['enum_calls']} enum calls")
    print(f"# known defect: enum returned optimal despite a general-position "
          f"warning in {shares['enum_optimal_with_gp_warning']} of "
          f"{shares['enum_calls']} enum calls")
    print(f"# certified_share {shares['certified_share']:.4f} ratio "
          f"(enum calls {shares['enum_calls']}; 0 on enum-n3 is a known defect)")
    print(f"# failed_share {shares['failed_share']:.4f} ratio "
          f"({len(failed)} of {len(calls)} calls)")

    if args.trace:
        import tracing
        layers.update({"datasets.generate.s": build_s,
                       "trace.overhead_s": overhead,
                       "failed_share": shares["failed_share"],
                       "certified_share": shares["certified_share"]})
        metrics = {k: {"value": layers[k], "unit": unit}
                   for k, unit in tracing.LAYER_METRICS.items()}
    else:
        ok = [c.wall for c in calls if c.problem is None]
        p50, n = percentile(ok, 50)
        p90, _ = percentile(ok, 90)
        raw = {"solve_s.p50": p50, "solve_s.p90": p90,
               "instances_per_s": len(ok) / sum(ok)}
        print(f"# solve_s samples {n} completed calls; setup_s samples "
              f"(raw s, probe s): {samples}")
        print(f"# machine speed: probe median {probe_s:.6f} s, reference "
              f"{PROBE_REF_S} s; raw wall-clock values: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        scale = PROBE_REF_S / probe_s
        metrics = {
            "setup_s": {"value": statistics.median(
                s * PROBE_REF_S / p for s, p in samples), "unit": "s"},
            "solve_s.p50": {"value": p50 * scale, "unit": "s"},
            "solve_s.p90": {"value": p90 * scale, "unit": "s"},
            "instances_per_s": {"value": raw["instances_per_s"] / scale,
                                "unit": "1/s"},
        }
        metrics["peak_rss_mb"] = {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    for k, v in metrics.items():
        print(f"# {k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": not wrong and not mismatches,
                      "attempted": len(calls), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
