"""Seeded instance sets for the benchmark workloads, and the output checks.

A workload is a list of instance classes. Round r holds one instance of every
class, each drawn from its own seed derived from (workload seed, r, class), so
rounds are independent and a run covers whole rounds. Every job is solved
through the public entry points (``solvers.solve_instance`` and
``hardness.decide_threshold``, looked up on their modules at call time so the
traced run can wrap them) with a default ``SolverConfig()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from switchreg import hardness, solvers
from switchreg.core import ABSOLUTE, SQUARED, Dataset, LossModel, empirical_cost
from switchreg.datasets import GeneratorSpec, generate_instance

CFG = solvers.SolverConfig()
TOL = CFG.tol

# Partition multisets: sizes 2-3 fit enum's d_max, larger sizes only the
# methods that do not need general position.
_PARTITION_METHODS = {2: ("enum", "brute", "noiseless"),
                      3: ("enum", "brute", "noiseless"),
                      4: ("brute", "noiseless"),
                      5: ("brute", "noiseless"),
                      6: ("brute", "noiseless")}


@dataclass(frozen=True)
class Job:
    """One instance and the public methods that solve it, in call order."""

    label: str
    data: Dataset
    n: int
    loss: LossModel
    methods: tuple
    partition: tuple | None = None       # the multiset, for decision jobs
    decision: hardness.DecisionInstance | None = None


def _generator_class(n, d, N, loss):
    def build(rng):
        seed = int(rng.integers(0, 2**63))
        data, _, _ = generate_instance(
            GeneratorSpec(n=n, d=d, N=N, noise_sigma=0.1, seed=seed))
        return Job(f"n{n}-d{d}-N{N}-{loss.kind}", data, n, loss, ("enum",))
    return build


def _grid_class(d, N, loss):
    """Integer grid, zero regressors included: ties and degenerate points."""
    def build(rng):
        x = rng.integers(-2, 3, size=(N, d)).astype(float)
        y = rng.integers(-2, 3, size=N).astype(float)
        return Job(f"grid-d{d}-N{N}-{loss.kind}", Dataset(x, y), 2, loss,
                   solvers.SOLVER_METHODS)
    return build


def _partition_class(size):
    def build(rng):
        s = tuple(int(v) for v in rng.integers(1, 12, size=size))
        inst = hardness.partition_to_instance(hardness.PartitionInstance(s))
        return Job(f"partition-{size}", inst.data, inst.n, SQUARED,
                   _PARTITION_METHODS[size], partition=s, decision=inst)
    return build


WORKLOADS = {
    "enum-gp": [_generator_class(2, d, N, loss) for d, N, loss in (
        (1, 60, SQUARED), (1, 30, ABSOLUTE), (2, 12, SQUARED),
        (2, 9, ABSOLUTE), (3, 8, SQUARED), (3, 8, ABSOLUTE))],
    "enum-n3": [_generator_class(3, 1, N, loss)
                for N in (6, 7, 8) for loss in (SQUARED, ABSOLUTE)],
    "grid-oracle": [_grid_class(d, N, loss)
                    for d in (1, 2) for N in (9, 10)
                    for loss in (SQUARED, ABSOLUTE)]
                   + [_partition_class(size) for size in _PARTITION_METHODS],
}


def build_rounds(workload: str, seed: int, rounds: int) -> list[list[Job]]:
    classes = WORKLOADS[workload]
    return [[build(np.random.default_rng([seed, r, k]))
             for k, build in enumerate(classes)]
            for r in range(rounds)]


def call(job: Job, method: str):
    """One public solve call: a SolveReport, or a ThresholdDecision."""
    if job.decision is not None:
        return hardness.decide_threshold(job.decision, method=method, cfg=CFG)
    return solvers.solve_instance(job.data, job.n, job.loss, method, CFG)


def report_of(outcome) -> solvers.SolveReport:
    return outcome.report if isinstance(outcome, hardness.ThresholdDecision) \
        else outcome


def has_equal_split(values) -> bool:
    """Subset-sum DP: can the multiset split into two equal-sum halves?"""
    total = sum(values)
    if total % 2:
        return False
    reachable = 1                        # bit s set: some subset sums to s
    for v in values:
        reachable |= reachable << v
    return bool(reachable >> (total // 2) & 1)


def check_job(job: Job, outcomes: dict) -> dict:
    """method -> None if the output passed every check, else (kind, reason).

    kind is "raised" when the call raised and "wrong" when its output
    failed a check. Checks: every report's cost equals empirical_cost of its
    own models and labeling; Partition answers match the subset-sum DP; on
    grid data enum equals brute, altmin is not below brute, and noiseless
    says optimal exactly when brute's cost is zero; on generator data enum
    is not above an untimed altmin run.
    """
    problems, costs = {}, {}
    for m, out in outcomes.items():
        if isinstance(out, Exception):
            problems[m] = ("raised", f"{type(out).__name__}: {out}")
            continue
        rep = report_of(out)
        loss = SQUARED if m == "noiseless" else job.loss
        recomputed = empirical_cost(job.data, rep.models, rep.labeling, loss)
        if abs(recomputed - rep.cost) > TOL.zero_tol:
            problems[m] = ("wrong", f"cost {rep.cost!r} but empirical_cost "
                                    f"gives {recomputed!r}")
        else:
            problems[m] = None
            costs[m] = rep.cost

    def fail(m, reason):
        if problems.get(m) is None:
            problems[m] = ("wrong", reason)

    tol = TOL.zero_tol
    if job.partition is not None:
        truth = has_equal_split(job.partition)
        for m in costs:
            if outcomes[m].answer != truth:
                fail(m, f"answered {outcomes[m].answer} for {job.partition}")
    elif "brute" in job.methods:
        if "brute" not in costs:
            for m in costs:
                fail(m, "no brute-force optimum to check against")
            return problems
        best = costs["brute"]
        if "enum" in costs and abs(costs["enum"] - best) > tol:
            fail("enum", f"enum cost {costs['enum']!r} != brute {best!r}")
        if "altmin" in costs and costs["altmin"] < best - tol:
            fail("altmin", f"altmin cost {costs['altmin']!r} < brute {best!r}")
        if "noiseless" in costs and \
                (report_of(outcomes["noiseless"]).status == "optimal") \
                != (best <= tol):
            fail("noiseless", f"status {outcomes['noiseless'].status} with "
                              f"brute cost {best!r}")
    elif "enum" in costs:
        heuristic = solvers.solve_instance(job.data, job.n, job.loss,
                                           "altmin", CFG)
        if costs["enum"] > heuristic.cost + tol:
            fail("enum", f"enum cost {costs['enum']!r} > altmin "
                         f"{heuristic.cost!r}")
    return problems
