"""Shared helpers: independent oracles and instance factories.

The oracles here deliberately avoid the library's own code paths wherever
possible, so agreement is evidence rather than tautology.
"""

import contextlib
import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from switchreg import (SIGN_TOL, Dataset, GeneratorSpec, Labeling, ModelSet,
                       empirical_cost, generate_instance)

_DIGEST = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
_spec = importlib.util.spec_from_file_location("report_digest", _DIGEST)
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)


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


def lstsq_brute_cost(x, y, n):
    """Least mean squared cost over every labeling, each mode fitted by
    np.linalg.lstsq on its own points."""
    best = np.inf
    for rest in itertools.product(range(n), repeat=len(y) - 1):
        q = np.array((0,) + rest)
        total = 0.0
        for j in range(n):
            m = q == j
            w = np.linalg.lstsq(x[m], y[m], rcond=None)[0]
            total += np.square(y[m] - x[m] @ w).sum()
        best = min(best, total / len(y))
    return best


def l1_interpolant_oracle(x, y, n):
    """Least mean absolute cost over n models, from interpolant tuples.

    Some optimal L1 fit of each mode interpolates at most d of its points,
    so some optimal model set is an unordered n-tuple, repeats allowed, of
    the interpolants of every subset of at most d points (each by
    np.linalg.lstsq on its own rows) and w = 0; each tuple costs
    sum_i min_j |y_i - w_j . x_i|. The tuples are scored in chunks.
    """
    N, d = x.shape
    ws = [np.zeros(d)] + [
        np.linalg.lstsq(x[list(idx)], y[list(idx)], rcond=None)[0]
        for s in range(1, d + 1)
        for idx in itertools.combinations(range(N), s)]
    resid = np.abs(y - np.array(ws) @ x.T)                  # (S, N)
    tuples = itertools.combinations_with_replacement(range(len(ws)), n)
    best = np.inf
    while chunk := list(itertools.islice(tuples, 20_000)):
        totals = resid[np.array(chunk)].min(axis=1).sum(axis=1)
        best = min(best, totals.min())
    return best / N


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


def exact_rank(rows):
    """Rank of a list of float rows in exact rational arithmetic: each
    float is a Fraction exactly, so Gaussian elimination decides dependence
    with no tolerance."""
    rows = [[Fraction(float(v)) for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_cell_count(points):
    """Cells of the central arrangement {h : h . p_i = 0} of the nonzero
    points, so the number of strict dichotomies of the points, with no
    tolerance: sum |mu(0, X)| over its intersection lattice (T. Zaslavsky,
    Mem. Amer. Math. Soc. 154, 1975). A flat X is the orthogonal
    complement of the span of some points; it is kept as the set of points
    in that span, built rank by rank as the closure of a flat of one rank
    less and one more point, with every rank from exact_rank. X lies below
    Y in the lattice when X's points are a proper subset of Y's, and
    mu(0, Y) is minus the sum of mu(0, X) over those X."""
    points = [list(p) for p in points]
    flats = {frozenset(): []}           # point set -> a basis of its span
    level = [frozenset()]
    while level:
        found = []
        for flat in level:
            for i in range(len(points)):
                # a flat one rank up holding the flat and i is their closure
                if i in flat or any(i in f and flat < f for f in found):
                    continue
                basis = flats[flat] + [points[i]]
                closure = frozenset(
                    j for j in range(len(points)) if j in flat or j == i
                    or exact_rank(basis + [points[j]]) == len(basis))
                flats[closure] = basis
                found.append(closure)
        level = found
    mu = {}
    for flat in flats:                  # built rank by rank
        mu[flat] = 1 if not flat else -sum(v for f, v in mu.items()
                                           if f < flat)
    return sum(map(abs, mu.values()))


def three_column_margins(unit):
    """(pairs, thirds) of three-column unit points: each pair's |p_i x p_j|,
    and each point's distance from each pair's plane, (C(N, 2), N), inf at
    the pair's own points and NaN where the pair is parallel."""
    i, j = np.triu_indices(len(unit), 1)
    normals = np.cross(unit[i], unit[j])
    pairs = np.sqrt((normals * normals).sum(axis=1))
    with np.errstate(invalid="ignore"):
        thirds = np.abs(normals @ unit.T) / pairs[:, None]
    thirds[np.arange(len(i)), i] = thirds[np.arange(len(i)), j] = np.inf
    return pairs, thirds


def assert_strict(points, result):
    """Every witness of a DichotomySet separates its row's points
    strictly."""
    margins = result.signs * (result.witnesses @ points.T)
    assert np.all(margins > SIGN_TOL)


@contextlib.contextmanager
def rays_on_their_points():
    """Check every ray the enumeration walks: as the normal of r-1
    independent points, it has at least r-1 of the points on it."""
    from switchreg import geometry
    rays = geometry._rays

    def checked(q):
        found = rays(q)
        assert (found[2].sum(axis=1) >= q.shape[1] - 1).all()
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_rays", checked)
        yield


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
