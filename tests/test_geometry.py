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
from switchreg import geometry
from switchreg.geometry import unique_rows

from conftest import lp_feasible_patterns


def _patterns(result):
    return result.patterns()


def _assert_strict(points, result):
    # every witness separates its row's points strictly
    margins = result.signs * (result.witnesses @ points.T)
    assert np.all(margins > DEFAULT_TOLERANCES.sign_tol)


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
    assert {tuple(r) for r in (-result.signs).tolist()} == pats
    _assert_strict(pts, result)


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


# two points collinear with the origin leave one spanning pair rank-1
_DEGENERATE = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])


def test_degenerate_spanning_subsets_counted():
    result = enumerate_linear_dichotomies(_DEGENERATE)
    assert _patterns(result) == lp_feasible_patterns(_DEGENERATE)
    _assert_strict(_DEGENERATE, result)


@pytest.mark.parametrize("m", [3, 4])
def test_generic_and_degenerate_rays_in_one_level(m):
    # Gaussian points give generic rays, resolved in the batched pass; a
    # triple in a common 2-plane and a repeated point give rays with more
    # than m-1 points on them, resolved by recursion
    rng = np.random.default_rng(40 + m)
    gauss = rng.standard_normal((4, m))
    a, b = rng.standard_normal((2, m))
    pts = np.vstack([gauss, [a, b, a - 0.5 * b], gauss[1]])
    result = enumerate_linear_dichotomies(pts)
    assert _patterns(result) == lp_feasible_patterns(pts)
    _assert_strict(pts, result)


def test_only_degenerate_rays_recurse(monkeypatch):
    # a structural guard, not a timing test: general-position points are
    # resolved in one level, with no recursive call
    entries = []
    cells = geometry._cells
    monkeypatch.setattr(geometry, "_cells",
                        lambda *args: entries.append(1) or cells(*args))
    rng = np.random.default_rng(29)
    for m in (2, 3, 4):
        entries.clear()
        enumerate_linear_dichotomies(rng.standard_normal((9, m)))
        assert len(entries) == 1, m
    entries.clear()
    enumerate_linear_dichotomies(_DEGENERATE)
    assert len(entries) > 1


def test_generic_rays_reuse_the_subsets_svd(monkeypatch):
    # a structural guard, not a timing test: one SVD gives the rank and one
    # stacked SVD of the (r-1)-subsets gives the rays and, for the generic
    # ones, the witnesses too
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    rng = np.random.default_rng(29)
    for m in (2, 3, 4):
        calls.clear()
        pts = rng.standard_normal((9, m))
        result = enumerate_linear_dichotomies(pts)
        assert len(calls) == 2, m
        if m == 2:
            assert _patterns(result) == _patterns(sweep_dichotomies_oracle(pts))
    result = enumerate_linear_dichotomies(_DEGENERATE)
    assert _patterns(result) == lp_feasible_patterns(_DEGENERATE)


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
    _assert_strict(scaled, result)


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


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = "import sys, switchreg; print('scipy' in sys.modules)"
    env = dict(os.environ,
               PYTHONPATH=str(Path(switchreg.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
