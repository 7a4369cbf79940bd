"""General-position checks and linear dichotomy enumeration."""

import itertools
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

import switchreg
from switchreg import (DichotomySet, PartitionInstance, check_general_position,
                       enumerate_linear_dichotomies, partition_to_instance,
                       sweep_dichotomies_oracle)
from switchreg import geometry
from switchreg.geometry import unique_rows

from conftest import (assert_strict, exact_cell_count, exact_rank,
                      lp_feasible_patterns, rays_on_their_points,
                      report_digest, three_column_margins)


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
    # C(60, 3) = 34,220 triples exceed the 20,000 scanned exhaustively
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((60, 2))
    rep = check_general_position(pts)
    assert rep.sampled
    assert rep.checked_subsets == 2000
    assert rep.ok


@pytest.mark.parametrize("N, m", [(60, 2), (25, 12)])
def test_sampled_subsets_hold_distinct_points(N, m):
    # every point on the hyperplane x_m = 0 flags every subset, so the
    # violations show the sampled subsets: m+1 distinct points each, also
    # where m+1 is near N and most integer draws would repeat a point
    pts = np.random.default_rng(1).standard_normal((N, m))
    pts[:, -1] = 0.0
    rep = check_general_position(pts)
    assert rep.sampled and not rep.ok
    assert len(rep.violations) == 64
    for subset in rep.violations:
        assert len(set(subset)) == m + 1
        assert 1 <= min(subset) and max(subset) <= N


def test_rejects_non_finite_points():
    with pytest.raises(ValueError):
        check_general_position(np.array([[np.nan, 0.0]]))
    # any input that is not 2-D is refused by its own shape
    for bad in (5.0, np.ones(3), np.ones((2, 3, 2))):
        shape = re.escape(str(np.shape(bad)))
        with pytest.raises(ValueError,
                           match=rf"must be \(N, m\), got shape {shape}$"):
            check_general_position(bad)


def _grid_point_sets():
    """Integer-grid point sets in R^m, m 1-3, of at most 9 points, each
    with a repeat of its first point and a point collinear with its first
    two."""
    rng = np.random.default_rng(43)
    for i in range(150):
        m = 1 + i % 3
        pts = rng.integers(-2, 3, size=(int(rng.integers(2, 8)), m))
        yield np.vstack([pts, pts[0], 2 * pts[1] - pts[0]]).astype(float)


def test_position_check_matches_exact_rank_on_grids():
    # a float-free reference: an (m+1)-subset is on an affine hyperplane
    # exactly when its rows (p, 1) have rational rank m or less
    flagged = 0
    for pts in _grid_point_sets():
        N, m = pts.shape
        rows = np.hstack([pts, np.ones((N, 1))])
        exact = tuple(tuple(i + 1 for i in s)
                      for s in itertools.combinations(range(N), m + 1)
                      if exact_rank(rows[list(s)]) <= m)
        rep = check_general_position(pts)
        assert rep.ok == (not exact), pts
        assert rep.violations == exact[:64], pts
        assert rep.checked_subsets == comb(N, m + 1)
        flagged += not rep.ok
    assert flagged == 150               # each set repeats a point


@pytest.mark.parametrize("scale", [2.0 ** 30, 2.0 ** -30])
def test_position_check_unchanged_by_column_scale(scale):
    # the rank test runs on the scaled unit rows, so a power-of-two column
    # scale leaves them, and the verdict, bit for bit as they were
    rng = np.random.default_rng(47)
    sets = list(_grid_point_sets())[:30] + [rng.standard_normal((7, m))
                                            for m in (1, 2, 3)]
    for pts in sets:
        rep = check_general_position(pts)
        for j in range(pts.shape[1]):
            scaled = pts.copy()
            scaled[:, j] *= scale
            assert check_general_position(scaled) == rep, (pts, j)


def _cell_count_sets():
    """Integer grids in m 2-4 of at most 8 nonzero points, each with a
    repeat of its first point and, where nonzero, a point collinear with its
    first two; the lifted (G) and regressor (H) points of the Partition
    reductions of sizes 2-5; and Gaussian sets in m 1-4."""
    rng = np.random.default_rng(61)
    for i in range(45):
        m = 2 + i % 3
        pts = rng.integers(-2, 3, size=(int(rng.integers(2, 7)), m))
        pts = pts[pts.any(axis=1)]
        if len(pts) < 2:
            pts = np.vstack([pts, np.eye(2, m, dtype=int)])[:2]
        pts = np.vstack([pts, pts[0], 2 * pts[1] - pts[0]])
        yield f"grid{i}-m{m}", pts[pts.any(axis=1)].astype(float)
    for s in [(1, 2), (3, 1, 2), (5, 3, 2, 4), (17, 13, 10, 6, 6)]:
        data = partition_to_instance(PartitionInstance(s)).data
        yield f"partition{len(s)}-G", data.lifted()
        yield f"partition{len(s)}-H", data.x
    for i in range(12):
        m = 1 + i % 4
        yield f"gauss{i}-m{m}", rng.standard_normal((int(rng.integers(1, 9)),
                                                    m))


def test_dichotomy_count_equals_exact_cell_count():
    """The enumeration's row count is the arrangement's cell count, taken
    in rational arithmetic with no tolerance, on data mostly not in general
    position. Not checked here: the lifted points of tiny regressors
    (generator data with a few rows' regressors scaled by 1e-13 or 1e-20),
    whose enumeration misses the exact count today (fewer rows on most,
    more on a few) because those points fall within SIGN_TOL of the y
    axis."""
    for label, pts in _cell_count_sets():
        assert len(enumerate_linear_dichotomies(pts)) == \
            exact_cell_count(pts), label


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
    with pytest.raises(ValueError, match="m <= 2"):
        sweep_dichotomies_oracle(np.zeros((4, 3)) + np.eye(4, 3))


def test_oracle_takes_points_tiny_against_the_others():
    # only an exact zero is at the origin: the sweep scales a point 1e-13
    # below the others to unit length and finds the enumeration's patterns
    pts = np.array([[1e-13, 0.0], [1.0, 1.0], [0.0, -1.0]])
    oracle = sweep_dichotomies_oracle(pts)
    assert len(oracle) == 6
    assert _patterns(oracle) == _patterns(enumerate_linear_dichotomies(pts))
    assert np.array_equal(np.sign(oracle.witnesses @ pts.T), oracle.signs)


def test_origin_point_rejected():
    with pytest.raises(ValueError):
        enumerate_linear_dichotomies(np.array([[0.0, 0.0], [1.0, 0.0]]))
    # and so are points that are not an (N, m) array or not finite
    with pytest.raises(ValueError, match=r"must be \(N, m\)"):
        enumerate_linear_dichotomies(np.ones(3))
    with pytest.raises(ValueError, match="must be finite"):
        enumerate_linear_dichotomies(np.array([[1.0, np.inf]]))


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
    assert_strict(pts, result)


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
    assert_strict(_DEGENERATE, result)


def _mixed_rays(m):
    rng = np.random.default_rng(40 + m)
    gauss = rng.standard_normal((4, m))
    a, b = rng.standard_normal((2, m))
    return np.vstack([gauss, [a, b, a - 0.5 * b], gauss[1]])


@pytest.mark.parametrize("m", [3, 4])
def test_generic_and_degenerate_rays_in_one_level(m):
    # Gaussian points give generic rays, resolved in the batched pass; a
    # triple in a common 2-plane and a repeated point give rays with more
    # than m-1 points on them, resolved by recursion
    pts = _mixed_rays(m)
    result = enumerate_linear_dichotomies(pts)
    assert _patterns(result) == lp_feasible_patterns(pts)
    assert_strict(pts, result)


_WITNESSED = {
    "degenerate": _DEGENERATE,
    "mixed-m3": _mixed_rays(3),
    "mixed-m4": _mixed_rays(4),
    "N=r": np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, -3.0]]),
    "N=r<m": np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 1.0]]),
    "r=1": np.array([[1.0, 2.0, 0.0], [-2.0, -4.0, 0.0], [0.5, 1.0, 0.0]]),
    "N=0": np.zeros((0, 3)),
}


@pytest.mark.parametrize("points", _WITNESSED.values(), ids=_WITNESSED)
def test_witnesses_computed_on_read_separate_strictly(monkeypatch, points):
    # the witnesses are computed on first read, each the sum of the rays
    # consistent with its row, and kept: a second read gives the same array
    calls = []
    witness = geometry._witnesses
    monkeypatch.setattr(geometry, "_witnesses",
                        lambda *args: calls.append(1) or witness(*args))
    result = enumerate_linear_dichotomies(points)
    assert not calls
    witnesses = result.witnesses
    assert witnesses.shape == (len(result), points.shape[1])
    assert result.witnesses is witnesses
    assert len(calls) == 1
    assert_strict(points, result)


def test_dichotomy_set_takes_witnesses_as_array_or_function():
    signs = np.array([[1, -1], [-1, 1]])
    given = DichotomySet(signs, [[1.0, -1.0], [-1.0, 1.0]])
    assert isinstance(given.witnesses, np.ndarray)
    assert_strict(np.eye(2), given)
    # an enumeration's pending witnesses pickle, and compute after loading
    result = pickle.loads(pickle.dumps(enumerate_linear_dichotomies(
        _mixed_rays(3))))
    assert_strict(_mixed_rays(3), result)


@pytest.mark.parametrize("scale", [1e-6, 1e-8, 1e-10])
def test_nearly_parallel_points_keep_every_pattern(scale):
    # four of six Gaussian points in R^3 are within `scale` of one
    # direction, so every pair of them has minors that small and rays
    # off by about 1e-16 / scale. Their triples are still in general
    # position far above SIGN_TOL, with Cover's 2 (1 + 5 + 10) patterns,
    # each ray on its own points, as the SVD of every subset gives them
    for seed in range(12):
        pts = np.random.default_rng(seed).standard_normal((6, 3))
        pts[:4, :2] *= scale
        with rays_on_their_points():
            assert len(enumerate_linear_dichotomies(pts)) == 32, seed


_SLICED = [np.random.default_rng(10 + m).standard_normal((7, m))
           for m in range(1, 6)] + [_DEGENERATE] + [_mixed_rays(m)
                                                    for m in (3, 4, 5)]


@pytest.mark.parametrize("points", _SLICED, ids=[
    f"gauss-m{m}" for m in range(1, 6)] + ["degenerate", "mixed-m3",
                                           "mixed-m4", "mixed-m5"])
def test_generic_pass_in_slices_gives_the_same_rows(monkeypatch, points):
    # the generic rays are resolved a slice of local cells at a time; at one
    # ray per slice the rows are the one-pass rows, and every witness, the
    # first found for its row, still separates strictly
    whole = enumerate_linear_dichotomies(points)
    monkeypatch.setattr(geometry, "_CELL_SLICE", 1)
    sliced = enumerate_linear_dichotomies(points)
    assert np.array_equal(sliced.signs, whole.signs)
    assert_strict(points, sliced)


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


def _svd_shapes(monkeypatch):
    """The shapes of the arrays np.linalg.svd is called on, from now on."""
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw:
                        shapes.append(np.shape(a)) or svd(a, *args, **kw))
    return shapes


def test_generic_rays_take_no_stacked_svd(monkeypatch):
    # a structural guard, not a timing test: two and three columns in
    # general position take no SVD, their cells coming from the planar and
    # three-column passes; four columns take one SVD for the span and one
    # stacked SVD for the rays of all C(9, 3) subsets at once, and no more
    shapes = _svd_shapes(monkeypatch)
    rng = np.random.default_rng(29)
    for m in (2, 3, 4):
        shapes.clear()
        pts = rng.standard_normal((9, m))
        result = enumerate_linear_dichotomies(pts)
        assert shapes == ([(9, 4), (84, 3, 4)] if m == 4 else []), m
        if m == 2:
            assert np.array_equal(result.signs,
                                  sweep_dichotomies_oracle(pts).signs)
    # one column takes none: its nonzero points span R^1, and the empty set
    # keeps its one empty row
    for N in (1, 2, 9):
        shapes.clear()
        pts = rng.standard_normal((N, 1))
        result = enumerate_linear_dichotomies(pts)
        assert shapes == [], N
        assert np.array_equal(result.signs,
                              sweep_dichotomies_oracle(pts).signs), N
    result = enumerate_linear_dichotomies(np.zeros((0, 1)))
    assert shapes == [] and result.signs.shape == (1, 0)
    shapes.clear()
    result = enumerate_linear_dichotomies(_DEGENERATE)
    assert _patterns(result) == lp_feasible_patterns(_DEGENERATE)
    assert any(len(shape) == 3 for shape in shapes)


# the digest's planar boundary sets, by kind: a generic set, and that set
# with a repeat, an antiparallel pair or a pair at 1.5 or 3 SIGN_TOL added,
# and a set on one line
_PLANAR = {label.split("-")[1]: points for label, points
           in report_digest.planar_point_sets(np, geometry.SIGN_TOL)}
_PLANAR_FALLBACK = {
    **{kind: _PLANAR[kind] for kind in ("duplicate", "antiparallel",
                                        "pair1.5tol", "collinear")},
    "N=2": _PLANAR["generic"][2:4],
    "three-columns": np.hstack([_PLANAR["generic"],
                                _PLANAR["generic"][::-1, :1]]),
}


@pytest.mark.parametrize("points", _PLANAR_FALLBACK.values(),
                         ids=_PLANAR_FALLBACK)
def test_planar_pass_falls_back_on_undecided_pairs(monkeypatch, points):
    # a set with a pair of unit points whose cross product is within
    # 2 SIGN_TOL of 0, or with two points, takes the span SVD first, as
    # every set did before the planar pass. So does the three-column set,
    # which the three-column pass leaves too: its points 3 to 6 lie on one
    # plane through the origin
    shapes = _svd_shapes(monkeypatch)
    result = enumerate_linear_dichotomies(points)
    assert shapes[0] == points.shape
    assert_strict(points, result)


def _decided_planar_sets():
    """Two-column sets of 3-14 points whose unit points' pairwise cross
    products are all past 1e-6, far outside SIGN_TOL: Gaussian, with rows
    and columns scaled by up to 1e+-150, and integer grids of distinct
    directions."""
    rng = np.random.default_rng(52)
    for i in range(24):
        pts = rng.standard_normal((3 + i % 12, 2))
        if i % 3 == 1:
            pts *= 10.0 ** rng.uniform(-150, 150, size=(len(pts), 1))
        if i % 3 == 2:
            pts *= 10.0 ** rng.uniform(-150, 150, size=2)
        yield pts
    for n in (3, 5, 8):
        grid = np.array([(a, b) for a in range(-2, 3) for b in range(0, 3)
                         if np.gcd(a, b) == 1 and (b > 0 or a > 0)], float)
        yield grid[:n] * rng.choice([-1.0, 1.0], size=(n, 1))
    yield _PLANAR["generic"]


def test_decided_planar_sets_take_the_planar_pass(monkeypatch):
    # Cover's 2N cells, each next to one point's line: the sweep oracle's
    # rows in its order, the exact cell count, and no SVD for the signs;
    # the witnesses, read after, take the span SVD as before
    shapes = _svd_shapes(monkeypatch)
    for pts in _decided_planar_sets():
        unit, _ = geometry._unit_points(pts)
        a, b = unit.T
        cross = np.abs(a[:, None] * b - b[:, None] * a)
        assert cross[~np.eye(len(pts), dtype=bool)].min() > 1e-6
        result = enumerate_linear_dichotomies(pts)
        assert shapes == [], pts
        assert np.array_equal(result.signs,
                              sweep_dichotomies_oracle(pts).signs), pts
        assert len(result) == 2 * len(pts) == exact_cell_count(pts)
        assert np.array_equal(np.sign(result.witnesses @ pts.T),
                              result.signs)
        shapes.clear()


def _decided_three_column_sets():
    """Gaussian three-column sets of 4-20 points whose unit points'
    pairwise cross products, and distances of every third point from a
    pair's plane, are all past 1e-6, far inside the three-column pass,
    some with rows or columns scaled by up to 1e+-150; then the digest's
    generic set, and its set with a point 3 SIGN_TOL off a pair's plane,
    just inside the pass. Each comes with whether it is unscaled."""
    rng = np.random.default_rng(53)
    kept = 0
    while kept < 24:
        pts = rng.standard_normal((4 + kept % 17, 3))
        if kept % 3 == 1:
            pts *= 10.0 ** rng.uniform(-150, 150, size=(len(pts), 1))
        if kept % 3 == 2:
            pts *= 10.0 ** rng.uniform(-150, 150, size=3)
        pairs, thirds = three_column_margins(geometry._unit_points(pts)[0])
        if min(pairs.min(), thirds.min()) > 1e-6:
            yield pts, kept % 3 == 0
            kept += 1
    yield _THREE["generic"], True
    yield _THREE["plane3tol"], True


# the digest's three-column boundary sets, by kind: a generic set, and that
# set with a repeat, an antiparallel pair, a coplanar triple or a point at
# 1.5 or 3 SIGN_TOL off a pair's plane added, and a mixed-magnitude set
_THREE = {label.split("-")[1]: points for label, points
          in report_digest.three_column_point_sets(np, geometry.SIGN_TOL)}


def test_decided_three_column_sets_take_the_closed_form(monkeypatch):
    # Cover's 2 (1 + (N - 1) + C(N - 1, 2)) cells, each next to the ray of
    # one pair, with no SVD for the signs; the witnesses, read after, take
    # the span SVD and separate strictly, by more than SIGN_TOL where the
    # points are not scaled
    shapes = _svd_shapes(monkeypatch)
    for pts, unscaled in _decided_three_column_sets():
        N = len(pts)
        result = enumerate_linear_dichotomies(pts)
        assert shapes == [], pts
        assert len(result) == 2 * (1 + (N - 1) + comb(N - 1, 2)) \
            == exact_cell_count(pts)
        assert np.array_equal(np.sign(result.witnesses @ pts.T),
                              result.signs)
        if unscaled:
            assert_strict(pts, result)
        shapes.clear()


_THREE_FALLBACK = {kind: _THREE[kind] for kind in (
    "duplicate", "antiparallel", "coplanar", "plane1.5tol", "mixed")}


@pytest.mark.parametrize("points", _THREE_FALLBACK.values(),
                         ids=_THREE_FALLBACK)
def test_three_column_pass_falls_back_on_undecided_sets(monkeypatch, points):
    # a set with a pair of unit points whose cross product is within
    # 4 SIGN_TOL of 0, or a third point within 2 SIGN_TOL of a pair's
    # plane, takes the span SVD first. Every three-column set of four or
    # more points that takes the pass, here or down the recursion, has
    # rank 3: the on-ray points of a degenerate ray, projected into its
    # plane, have triple products of rounding size, which the pass's
    # rounding term keeps out. The mixed set's entries, 10^+-20 apart, put
    # its witnesses' margins below SIGN_TOL in its own scale
    shapes = _svd_shapes(monkeypatch)
    taken = []
    cells = geometry._cells

    def spied(pts):
        before = len(shapes)
        rows = cells(pts)
        if pts.shape[1] == 3 and len(pts) > 3 and len(shapes) == before:
            taken.append(pts)
        return rows

    monkeypatch.setattr(geometry, "_cells", spied)
    result = enumerate_linear_dichotomies(points)
    assert shapes[0] == points.shape
    for pts in taken:
        assert np.linalg.svd(pts, compute_uv=False)[-1] > geometry.SIGN_TOL
    if points is not _THREE["mixed"]:
        assert_strict(points, result)


@pytest.mark.parametrize("points, rows", [
    ([[1e-200], [1e200]], [[-1, -1], [1, 1]]),
    ([[1e-200, 1e-200], [1e200, 1.0], [1.0, 1e200]],
     [[-1, -1, -1], [-1, -1, 1], [-1, 1, -1], [1, -1, 1], [1, 1, -1],
      [1, 1, 1]]),
], ids=["line", "plane"])
def test_rows_that_underflow_against_their_column_maxima(points, rows):
    # every coordinate of the first point divided by its column maximum
    # underflows to 0; the point is scaled up by a power of two first, so
    # it keeps its direction, here (1, 1) up to its length. Each witness
    # separates its row exactly, though its float products with the first
    # point underflow to 0
    result = enumerate_linear_dichotomies(points)
    assert np.array_equal(result.signs, rows)
    exact = [[sum(Fraction(w) * Fraction(p) for w, p in zip(wit, point))
              for point in points] for wit in result.witnesses.tolist()]
    assert [[(v > 0) - (v < 0) for v in row] for row in exact] == rows
    assert np.array_equal(sweep_dichotomies_oracle(points).signs, rows)
    unit, _ = geometry._unit_points(points)
    assert np.allclose(unit[0], np.full(len(points[0]),
                                        len(points[0]) ** -0.5))


@pytest.mark.parametrize("scale", [(1e-10, 1.0), (1.0, 1e10), (1e-10, 1e10),
                                   (1e-150, 1.0), "rows"],
                         ids=["tiny-x", "huge-y", "both", "tiniest-x", "rows"])
def test_dichotomies_unchanged_by_coordinate_scale(scale):
    # patterns survive positive scaling of a coordinate or of a point,
    # however extreme, in the enumeration and in the oracle alike
    pts = np.random.default_rng(17).standard_normal((8, 2))
    if scale == "rows":
        scale = 10.0 ** -np.arange(0.0, 11.2, 1.5)[:, None]
    scaled = pts * np.array(scale)
    result = enumerate_linear_dichotomies(scaled)
    oracle = sweep_dichotomies_oracle(scaled)
    assert _patterns(result) == _patterns(oracle) \
        == _patterns(sweep_dichotomies_oracle(pts))
    assert_strict(scaled, result)
    assert np.array_equal(np.sign(oracle.witnesses @ scaled.T), oracle.signs)


def test_dichotomies_of_rows_too_small_to_square():
    # the squared norm of a row scaled by 1e-160 or less underflows to zero;
    # scaling a point does not move a separating h, so the witnesses must
    # separate the unscaled points strictly
    pts = np.random.default_rng(17).standard_normal((8, 2))
    scaled = pts * 10.0 ** -np.arange(0.0, 281.0, 40.0)[:, None]
    result = enumerate_linear_dichotomies(scaled)
    assert _patterns(result) == _patterns(sweep_dichotomies_oracle(pts))
    assert_strict(pts, result)


@pytest.mark.parametrize("scale", [1e-10, 1e-13])
def test_tiny_line_points_two_patterns(scale):
    pts = scale * np.array([[1.0], [2.0], [-1.0], [3.0]])
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


def test_unique_rows_around_one_word():
    # uint64 keys up to 64 columns, void keys past: rows that differ only
    # in the first or the last column are told apart on both paths
    rng = np.random.default_rng(29)
    for width in (63, 64, 65, 70):
        rows = rng.random((30, width)) < 0.5
        rows = rows[rng.integers(0, 30, size=80)]
        rows[1], rows[2] = rows[0], rows[0]
        rows[1, 0], rows[2, -1] = ~rows[0, 0], ~rows[0, -1]
        expected = np.unique(rows, axis=0, return_index=True)[1]
        assert np.array_equal(unique_rows(rows), expected), width


def test_packed_keys_sort_in_row_order():
    # the keys sort as the rows do, False before True and the first column
    # first, and are equal exactly where the rows are
    rng = np.random.default_rng(37)
    for width in (1, 7, 8, 9, 63, 64, 65, 70):
        rows = rng.random((40, width)) < 0.5
        rows = rows[rng.integers(0, 40, size=50)]
        keys = geometry._packed_keys(rows)
        assert (keys.dtype == np.uint64) == (width <= 64), width
        by_rows = sorted(range(len(rows)), key=lambda i: rows[i].tolist())
        assert np.array_equal(np.argsort(keys, kind="stable"), by_rows), width
        assert np.array_equal(keys[:, None] == keys[None],
                              (rows[:, None] == rows[None]).all(axis=2)), width


def test_combination_rows_are_itertools_combinations():
    for N, k in ((5, 0), (5, 1), (6, 3), (4, 4), (3, 5)):
        rows = geometry._combination_rows(N, k)
        assert rows.dtype == np.int64 and rows.shape == (comb(N, k), k)
        assert rows.tolist() == [list(c) for c in
                                 itertools.combinations(range(N), k)]


def test_running_unique_is_unique_rows_of_the_stack():
    # after each block: the stack's distinct rows in ascending order;
    # repeats within and across blocks, empty blocks first and later
    rng = np.random.default_rng(41)
    for width in (3, 9, 17):
        pool = rng.random((30, width)) < 0.5
        sizes = [0, 25, 0, 40, 1, 60, 25]
        blocks = [pool[rng.integers(0, 30, size=k)] for k in sizes]
        stream = geometry._running_unique(iter(blocks))
        for b, rows in enumerate(stream):
            stack = np.vstack(blocks[:b + 1])
            assert np.array_equal(rows, stack[unique_rows(stack)]), (width, b)


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = "import sys, switchreg; print('scipy' in sys.modules)"
    env = dict(os.environ,
               PYTHONPATH=str(Path(switchreg.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
