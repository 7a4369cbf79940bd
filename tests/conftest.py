"""Shared helpers: independent oracles and instance factories.

The oracles here deliberately avoid the library's own code paths wherever
possible, so agreement is evidence rather than tautology.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from switchreg import (Dataset, GeneratorSpec, Labeling, ModelSet,
                       empirical_cost, generate_instance)


def random_instance(seed, *, n=2, d=1, N=8, sigma=0.1):
    spec = GeneratorSpec(n=n, d=d, N=N, noise_sigma=sigma, seed=seed)
    return generate_instance(spec)


def min_cost_over_all_labelings(data, models, loss):
    """Literal minimum of the cost over every labeling, models held fixed."""
    best = np.inf
    for q in itertools.product(range(1, models.n + 1), repeat=data.N):
        c = empirical_cost(data, models, Labeling(np.array(q)), loss)
        best = min(best, c)
    return best


def partition_has_equal_split(s):
    """2^d scan: does some sub-multiset reach exactly half the total?"""
    total = sum(s)
    if total % 2:
        return False
    for r in range(len(s) + 1):
        for combo in itertools.combinations(range(len(s)), r):
            if 2 * sum(s[i] for i in combo) == total:
                return True
    return False


def lp_feasible_patterns(points):
    """Every sign pattern s with some h such that s_i (p_i . h) >= 1.

    Strict separation is scale-free, so these are exactly the strictly
    realizable patterns; one feasibility LP per pattern, 2^N in all.
    """
    N, m = points.shape
    found = set()
    for s in itertools.product((-1, 1), repeat=N):
        A = -(np.array(s)[:, None] * points)
        res = linprog(np.zeros(m), A_ub=A, b_ub=-np.ones(N),
                      bounds=[(None, None)] * m, method="highs")
        if res.status == 0:
            found.add(s)
    return found


@pytest.fixture
def noiseless_four_points():
    """Two exact lines through four points: y = 2x and y = -x."""
    data = Dataset(np.array([[1.0], [2.0], [1.0], [3.0]]),
                   np.array([2.0, 4.0, -1.0, -3.0]))
    models = ModelSet(np.array([[2.0], [-1.0]]))
    labeling = Labeling(np.array([1, 1, 2, 2]))
    return data, models, labeling


@pytest.fixture
def perturbed_four_points():
    """The same instance with outputs nudged off the lines."""
    return Dataset(np.array([[1.0], [2.0], [1.0], [3.0]]),
                   np.array([2.1, 3.9, -0.9, -3.1]))
