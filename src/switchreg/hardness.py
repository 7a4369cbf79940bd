"""Partition-to-regression reduction machinery.

A Partition instance (positive integers s_1..s_d) compiles into a two-mode
regression instance with 2d+1 points in dimension d: each axis direction
appears twice, once demanding w_i = 1 and once w_i = 0, and a final point
forces the coordinate-indicator halves to sum equally. The instance admits
a zero-error switching fit exactly when the multiset splits into two parts
of equal sum, which makes the decision form of the regression problem
NP-hard and, here, gives a runnable gadget: decide the threshold with an
exact solver, then read the partition off the certificate's coordinates.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    Labeling,
    LossModel,
    ModelSet,
    SQUARED,
    ZERO_TOL,
)
# decide_threshold reaches the solvers through solve_instance; the
# benchmark's tracer wraps the three solvers by name on this module
from .solvers import (SolveReport, SolverConfig, brute_force_solve,
                      enumeration_solve, noiseless_solve, solve_instance)

__all__ = [
    "PartitionInstance",
    "DecisionInstance",
    "ThresholdDecision",
    "CertificateError",
    "partition_to_instance",
    "decide_threshold",
    "extract_partition",
]


class CertificateError(ValueError):
    """A model set did not have the shape of a valid zero-error certificate."""


@dataclass(frozen=True)
class PartitionInstance:
    """Multiset of positive integers to split into two equal-sum parts.

    Each entry is a Python or numpy integer, not a bool or a float, so the
    multiset decided is the one given, and their sum is at most the largest
    float, since the reduction's points are floats; anything else raises
    ValueError."""

    s: tuple

    def __post_init__(self):
        vals = tuple(self.s)
        if len(vals) < 1:
            raise ValueError("empty multiset")
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   and v >= 1 for v in vals):
            raise ValueError(f"entries must be positive integers, got {vals!r}")
        vals = tuple(int(v) for v in vals)
        if sum(vals) > sys.float_info.max:
            raise ValueError("the entries' sum exceeds the largest float")
        object.__setattr__(self, "s", vals)

    @property
    def d(self) -> int:
        return len(self.s)

    @property
    def total(self) -> int:
        return sum(self.s)


@dataclass(frozen=True)
class DecisionInstance:
    """Threshold form of the regression problem: is the optimal cost <= epsilon?"""

    data: Dataset
    n: int
    epsilon: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("decision instances use n >= 2")
        if self.n * self.data.d > self.data.N:
            raise ValueError(f"need n <= N/d, got n={self.n}, N={self.data.N}, "
                             f"d={self.data.d}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be a finite nonnegative real")


@dataclass(frozen=True)
class ThresholdDecision:
    """yes/no answer with the certificate (when yes) or the best cost found."""

    answer: bool
    cost: float
    models: ModelSet
    labeling: Labeling
    report: SolveReport


def partition_to_instance(p: PartitionInstance) -> DecisionInstance:
    """Compile a Partition multiset into a zero-threshold regression instance.

    Points: (s_i e_i, s_i) for i = 1..d, then (s_i e_i, 0) for the same
    axes, then (sum_k s_k e_k, total/2). A model pair fits all of them
    exactly iff the coordinates of w_1 indicate an equal-sum sub-multiset
    (with w_2 the complementary indicator).
    """
    d = p.d
    x = np.zeros((2 * d + 1, d))
    y = np.zeros(2 * d + 1)
    for i, v in enumerate(p.s):
        x[i, i] = v
        y[i] = v
        x[d + i, i] = v
        y[d + i] = 0.0
    x[2 * d] = np.array(p.s, dtype=float)
    y[2 * d] = p.total / 2.0
    return DecisionInstance(data=Dataset(x, y), n=2, epsilon=0.0)


def decide_threshold(inst: DecisionInstance, loss: LossModel = SQUARED,
                     method: str = "brute",
                     cfg: SolverConfig = SolverConfig()) -> ThresholdDecision:
    """Decide whether the optimal cost is at most epsilon, with certificate.

    Only exact methods are accepted: a no-answer claims global optimality.
    The noiseless solver is admissible only for epsilon at the zero
    threshold, since it certifies exact fits and nothing weaker. The
    enumeration solver is exact on reduction instances too, despite their
    repeated regressor vectors, but their dimension is the multiset size
    and its time grows exponentially with it. Per decision at sizes 4, 5,
    6 and 7 ((5, 3, 2, 4), (17, 13, 10, 6, 6), (4, 8, 3, 5, 2, 6) and
    (17, 13, 10, 6, 6, 1, 2), the least of three runs on a 2-core x86 VM
    with one BLAS thread, one run at size 7), enum takes 0.017, 0.11, 0.81
    and 7.6 s, where brute or noiseless are faster: brute takes 0.004,
    0.016, 0.074 and 0.30 s. The answer is yes when the cost is at most
    epsilon + ZERO_TOL, the margin every solver's zero tests use; a
    decision's slack is its epsilon.
    """
    if method == "altmin":
        raise ValueError("altmin is heuristic; a threshold decision needs an "
                         "exact solver")
    if method == "noiseless" and inst.epsilon > ZERO_TOL:
        raise ValueError("noiseless method only certifies the zero "
                         "threshold; use brute or enum for epsilon > 0")
    report = solve_instance(inst.data, inst.n, loss, method, cfg)
    answer = report.cost <= inst.epsilon + ZERO_TOL
    return ThresholdDecision(answer=answer, cost=report.cost,
                             models=report.models, labeling=report.labeling,
                             report=report)


def extract_partition(models: ModelSet, p: PartitionInstance) -> list:
    """Read an equal-sum sub-multiset off a zero-error certificate.

    Only w_1 is read: each of its coordinates is rounded to {0, 1} within
    ZERO_TOL, and the entries it selects are returned. A coordinate near
    neither, or a selection whose sum is not half the total, is rejected;
    w_2 is never checked (a zero-error certificate's w_2 is the
    complementary indicator). When the certificate came out role-swapped,
    calling again with the models reordered (or using the complement)
    gives the other half.
    """
    if models.d != p.d:
        raise CertificateError(f"models have d={models.d}, instance has d={p.d}")
    w1 = models.w[0]
    picks = []
    for i, v in enumerate(w1):
        if abs(v - 1.0) <= ZERO_TOL:
            picks.append(True)
        elif abs(v) <= ZERO_TOL:
            picks.append(False)
        else:
            raise CertificateError(
                f"coordinate w_1[{i + 1}] = {float(v)!r} is not near 0 or 1; "
                f"not a zero-error certificate (or roles swapped; retry "
                f"with w_2)")
    s1 = [s for s, take in zip(p.s, picks) if take]
    if 2 * sum(s1) != p.total:
        raise CertificateError(
            f"selected sum {sum(s1)} does not equal half of {p.total}")
    return s1
