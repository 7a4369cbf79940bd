"""General-position checks and linear dichotomy enumeration."""

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

import switchreg
from switchreg import (DEFAULT_TOLERANCES, check_general_position,
                       enumerate_linear_dichotomies, sweep_dichotomies_oracle)
from switchreg.geometry import Dichotomy, unique_rows

from conftest import lp_feasible_patterns


def _patterns(result):
    return result.patterns()


# ---------------------------------------------------------------------------
# General position


def test_collinear_triple_flagged():
    rep = check_general_position(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert not rep.ok
    assert (1, 2, 3) in rep.violations


def test_affinely_independent_ok():
    rep = check_general_position(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert rep.ok
    assert rep.violations == ()


def test_noiseless_lifted_points_violate_position():
    # a single exact mode puts every lifted point on one hyperplane
    x = np.array([1.0, 2.0, 3.0])
    lifted = np.column_stack([x, 2 * x])
    rep = check_general_position(lifted)
    assert not rep.ok


def test_too_few_points_trivially_ok():
    assert check_general_position(np.array([[1.0, 2.0]])).ok


def test_sampled_mode_for_large_sets():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 2))
    rep = check_general_position(pts, max_exhaustive=100, samples=500)
    assert rep.sampled
    assert rep.checked_subsets == 500
    assert rep.ok


def test_rejects_non_finite_points():
    with pytest.raises(ValueError):
        check_general_position(np.array([[np.nan, 0.0]]))


# ---------------------------------------------------------------------------
# Enumeration, line case


def test_line_points_two_patterns():
    result = enumerate_linear_dichotomies(np.array([[1.0], [2.0], [-1.0]]))
    assert _patterns(result) == {(1, 1, -1), (-1, -1, 1)}
    assert len(result) == 2 == 2 * comb(3, 0)


def test_line_oracle_matches():
    for pts in (np.array([[1.0], [2.0], [-1.0]]), np.zeros((0, 1)),
                np.zeros((0, 2))):
        oracle = sweep_dichotomies_oracle(pts)
        assert _patterns(oracle) == _patterns(enumerate_linear_dichotomies(pts))
        assert oracle.signs.shape[1] == len(pts)
        assert oracle.witnesses.shape[1] == pts.shape[1]


# ---------------------------------------------------------------------------
# Enumeration, plane case


def test_plane_three_points_six_patterns():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]])
    pats = _patterns(enumerate_linear_dichotomies(pts))
    assert len(pats) == 6
    assert (1, 1, 1) in pats
    assert (1, 1, -1) in pats
    assert len(pats) <= 4 * comb(3, 1)
    assert pats == _patterns(sweep_dichotomies_oracle(pts))


def test_plane_two_points_fully_shattered():
    pts = np.array([[1.0, 0.2], [-0.3, 1.0]])
    pats = _patterns(sweep_dichotomies_oracle(pts))
    assert pats == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    # N <= m needs no special case: the recursion shatters the points
    assert _patterns(enumerate_linear_dichotomies(pts)) == pats


def test_plane_random_ten_points_within_bound():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((10, 2))
    result = enumerate_linear_dichotomies(pts)
    assert len(result) <= 4 * comb(10, 1)
    assert _patterns(result) == _patterns(sweep_dichotomies_oracle(pts))


def test_oracle_rejects_higher_dimension():
    with pytest.raises(ValueError):
        sweep_dichotomies_oracle(np.zeros((4, 3)) + np.eye(4, 3))


def test_origin_point_rejected():
    with pytest.raises(ValueError):
        enumerate_linear_dichotomies(np.array([[0.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# Properties on random sets


@pytest.mark.parametrize("m", [1, 2, 3])
def test_negation_closure_and_witnesses(m):
    rng = np.random.default_rng(10 + m)
    pts = rng.standard_normal((7, m))
    result = enumerate_linear_dichotomies(pts)
    pats = _patterns(result)
    assert len(result) <= 2 ** m * comb(7, m - 1)
    rows = [tuple(r) for r in result.signs.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))     # strictly ascending
    for d in result:
        assert tuple(-s for s in d.signs) in pats
        margins = np.array(d.signs) * (pts @ d.witness)
        assert np.all(margins > DEFAULT_TOLERANCES.sign_tol)


def test_oracle_equivalence_random_sets():
    rng = np.random.default_rng(6)
    for _ in range(15):
        m = int(rng.integers(1, 3))
        N = int(rng.integers(m + 2, 13))
        pts = rng.standard_normal((N, m))
        enum = _patterns(enumerate_linear_dichotomies(pts))
        sweep = _patterns(sweep_dichotomies_oracle(pts))
        assert enum == sweep
        assert len(enum) <= 2 ** m * comb(N, m - 1)


def test_degenerate_spanning_subsets_counted():
    # two points collinear with the origin leave one spanning pair rank-1
    pts = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    result = enumerate_linear_dichotomies(pts)
    assert _patterns(result) == lp_feasible_patterns(pts)
    for d in result:
        margins = np.array(d.signs) * (pts @ d.witness)
        assert np.all(margins > DEFAULT_TOLERANCES.sign_tol)


@pytest.mark.parametrize("scale", [(1e-10, 1.0), (1.0, 1e10), (1e-10, 1e10),
                                   "rows"],
                         ids=["tiny-x", "huge-y", "both", "rows"])
def test_dichotomies_unchanged_by_coordinate_scale(scale):
    # patterns survive positive scaling of a coordinate or of a point,
    # however extreme
    pts = np.random.default_rng(17).standard_normal((8, 2))
    if scale == "rows":
        scale = 10.0 ** -np.arange(0.0, 11.2, 1.5)[:, None]
    scaled = pts * np.array(scale)
    result = enumerate_linear_dichotomies(scaled)
    assert _patterns(result) == _patterns(sweep_dichotomies_oracle(pts))
    for d in result:
        margins = np.array(d.signs) * (scaled @ d.witness)
        assert np.all(margins > DEFAULT_TOLERANCES.sign_tol)


def test_tiny_line_points_two_patterns():
    pts = 1e-10 * np.array([[1.0], [2.0], [-1.0], [3.0]])
    assert _patterns(enumerate_linear_dichotomies(pts)) == \
        {(1, 1, -1, 1), (-1, -1, 1, -1)}


def test_unique_rows_matches_numpy_unique():
    rng = np.random.default_rng(23)
    for width in range(1, 21):                 # every count of padding bits
        rows = rng.random((40, width)) < 0.5
        rows = rows[rng.integers(0, 40, size=60)]           # with repeats
        for arr in (rows, rows.T.copy().T):    # C- and F-ordered
            expected = np.unique(arr, axis=0, return_index=True)[1]
            assert np.array_equal(unique_rows(arr), expected), width
    assert unique_rows(np.zeros((0, 9), dtype=bool)).size == 0


def test_dichotomy_sign_validation():
    with pytest.raises(ValueError):
        Dichotomy(signs=(1, 0, -1), witness=np.ones(2))


def test_dichotomy_equality_ignores_witness():
    a = Dichotomy(signs=(1, -1), witness=np.array([1.0]))
    b = Dichotomy(signs=(1, -1), witness=np.array([2.0]))
    assert a == b
    assert len({a, b}) == 1


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = "import sys, switchreg; print('scipy' in sys.modules)"
    env = dict(os.environ,
               PYTHONPATH=str(Path(switchreg.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
