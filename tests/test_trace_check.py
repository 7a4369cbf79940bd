"""The benchmark's traced cross-check (``benchmark/run.py --trace 1``) on a
small fixed pool, so that a solver signature or count change that breaks it
fails here rather than only in a traced benchmark run."""

import sys
from pathlib import Path

import numpy as np

from switchreg import (ABSOLUTE, SQUARED, Dataset, PartitionInstance,
                       partition_to_instance, solvers)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
import run  # noqa: E402
import workloads  # noqa: E402


def _pool():
    # integer grid with a zero regressor, a repeated point and ties
    x = np.array([[0.0], [1.0], [1.0], [2.0], [-1.0], [2.0], [-2.0]])
    y = np.array([1.0, 2.0, 2.0, -1.0, 0.0, 1.0, 2.0])
    grid = [workloads.Job(f"grid-{loss.kind}", Dataset(x, y), 2, loss,
                          solvers.SOLVER_METHODS)
            for loss in (SQUARED, ABSOLUTE)]
    s = (1, 2, 3)
    inst = partition_to_instance(PartitionInstance(s))
    decision = workloads.Job("partition-3", inst.data, inst.n, SQUARED,
                             ("enum", "brute", "noiseless"), partition=s,
                             decision=inst)
    return [grid + [decision]]


def test_traced_run_matches_untraced_and_reports():
    calls, layers, _, mismatches = run.run_traced(workloads, _pool())
    assert mismatches == []
    assert [(c.method, c.problem) for c in calls if c.problem] == []
    assert len(calls) == 11
    # every cross-checked count was exercised
    for metric in ("solvers.stream.combinations", "solvers.brute.labelings",
                   "solvers.noiseless.systems"):
        assert layers[metric] > 0
