"""Differential fuzz gate for the exact dichotomy enumeration and solver.

Hypothesis draws small integer-grid inputs, where repeated, collinear and
coplanar points, zero regressors and exact residual ties are common, and
small Partition multisets, whose reductions repeat every regressor, and
noisy generator instances, the solver's intended input. Past brute force's
reach, zero-noise generator instances plant an exact fit. The runs are
derandomized and bounded, so the gate is deterministic and fast.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from switchreg import (ABSOLUTE, SIGN_TOL, SQUARED, ZERO_TOL, Dataset,
                       GeneratorSpec, PartitionInstance,
                       brute_force_solve, enumerate_linear_dichotomies,
                       enumeration_solve, generate_instance, noiseless_solve,
                       partition_to_instance, sweep_dichotomies_oracle)
from switchreg.geometry import _unit_points

from conftest import lp_feasible_patterns, rays_on_their_points

_GATE = settings(derandomize=True, database=None, deadline=None,
                 max_examples=60)


def _grid_rows(draw, cols, lo, hi, label):
    N = draw(st.integers(lo, hi), label=f"{label} count")
    row = st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=N, max_size=N), label=label)


@st.composite
def _nonzero_points(draw, m, lo, hi):
    """Grid points off the origin; a drawn point may repeat or be scaled."""
    pts = np.array(_grid_rows(draw, m, lo, hi, "points"), dtype=float)
    pts = pts[pts.any(axis=1)]
    if len(pts) == 0:
        pts = np.eye(1, m)
    if draw(st.booleans(), label="repeat"):
        i = draw(st.integers(0, len(pts) - 1))
        pts = np.vstack([pts, draw(st.sampled_from((1.0, 2.0, -1.0))) * pts[i]])
    return pts


def _assert_strict(points, result):
    margins = result.signs * (result.witnesses @ points.T)
    assert np.all(margins > SIGN_TOL)


@_GATE
@given(st.integers(1, 2).flatmap(lambda m: _nonzero_points(m, 2, 9)))
def test_dichotomies_match_sweep_oracle_on_grid(points):
    result = enumerate_linear_dichotomies(points)
    assert result.patterns() == sweep_dichotomies_oracle(points).patterns()
    _assert_strict(points, result)


@_GATE
@given(st.integers(1, 2).flatmap(lambda m: _nonzero_points(m, 2, 9)),
       st.lists(st.integers(-10, 10), min_size=2, max_size=2))
def test_dichotomies_ignore_coordinate_scale(points, exponents):
    scaled = points * 10.0 ** np.array(exponents[:points.shape[1]])
    result = enumerate_linear_dichotomies(scaled)
    oracle = sweep_dichotomies_oracle(scaled)
    assert result.patterns() == oracle.patterns() \
        == sweep_dichotomies_oracle(points).patterns()
    _assert_strict(scaled, result)
    assert np.array_equal(np.sign(oracle.witnesses @ scaled.T), oracle.signs)


@settings(_GATE, max_examples=40)
@given(_nonzero_points(3, 2, 6))
def test_dichotomies_match_linear_programs_in_three_dimensions(points):
    result = enumerate_linear_dichotomies(points)
    assert result.patterns() == lp_feasible_patterns(points)
    _assert_strict(points, result)


# m = 4 is the lifted space of d = 3; a drawn repeat brings N to at most 6
@settings(_GATE, max_examples=30)
@given(_nonzero_points(4, 2, 5))
def test_dichotomies_match_linear_programs_in_four_dimensions(points):
    result = enumerate_linear_dichotomies(points)
    assert result.patterns() == lp_feasible_patterns(points)
    _assert_strict(points, result)


# Near-degenerate sets. In the plane, two directions 1e-11 to 1e-7 rad apart
# are two lines to the enumeration and to the sweep alike.
@settings(_GATE, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.floats(7.0, 11.0))
def test_dichotomies_of_nearly_parallel_points_match_sweep_oracle(seed, exp):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((6, 2))
    angle = np.arctan2(pts[0, 1], pts[0, 0]) + 10.0 ** -exp
    pts[1] = rng.uniform(0.5, 2.0) * np.array([np.cos(angle), np.sin(angle)])
    result = enumerate_linear_dichotomies(pts)
    assert result.patterns() == sweep_dichotomies_oracle(pts).patterns()
    _assert_strict(pts, result)


def _near_coplanar(seed, m, offset):
    """Five Gaussian points in R^m, the third `offset` off the plane of the
    first two."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((5, m))
    span = np.linalg.qr(pts[:2].T)[0]
    w = rng.standard_normal(m)
    w -= span @ (span.T @ w)
    pts[2] = rng.uniform(-0.5, 0.5, 2) @ pts[:2] + offset * w / np.linalg.norm(w)
    return pts


# The triple's subsets have minors near the offset, so their rays from
# minors are off by about 1e-16 / offset, and the enumeration must take
# them from an SVD instead; every ray must keep its own points on it.
# Draws with an m x m determinant of the scaled points within 2 SIGN_TOL of
# zero are skipped, as a point that close to a hyperplane counts as on it.
# The patterns of points in general position follow the signs of those
# determinants. The LPs, which need no separating h of norm near 1e12 there,
# run at offset 1e-5, where the test checks that every sign is the same.
@settings(_GATE, max_examples=20)
@given(st.sampled_from([3, 4]), st.integers(0, 2**32 - 1),
       st.floats(11.0, 11.5))
def test_dichotomies_of_near_coplanar_triples_match_linear_programs(m, seed,
                                                                    exp):
    pts = _near_coplanar(seed, m, 10.0 ** -exp)
    far = _near_coplanar(seed, m, 1e-5)
    subsets = list(itertools.combinations(range(len(pts)), m))
    dets = np.linalg.det(_unit_points(pts)[0][subsets])
    assume(np.abs(dets).min() > 2 * SIGN_TOL)
    assert np.array_equal(np.sign(dets), np.sign(np.linalg.det(far[subsets])))
    with rays_on_their_points():
        result = enumerate_linear_dichotomies(pts)
    assert result.patterns() == lp_feasible_patterns(far)


# brute force takes 0.2-0.6 s per solve at n = 4, N = 8 (grid data, d = 1
# and 2, either loss, 2-core x86 VM), so n = 4 stops at N = 6
_GRID_MAX_N = {(2, 1): 7, (2, 2): 7, (2, 3): 7, (2, 4): 7, (3, 1): 8,
               (3, 2): 8, (4, 1): 6, (4, 2): 6}


@settings(_GATE, max_examples=100)
@given(st.data(), st.sampled_from(sorted(_GRID_MAX_N)),
       st.sampled_from([SQUARED, ABSOLUTE]))
def test_enum_equals_brute_on_grid_instances(data, nd, loss):
    n, d = nd
    xy = np.array(_grid_rows(data.draw, d + 1, 2, _GRID_MAX_N[nd],
                             "rows (x, y)"), dtype=float)
    inst = Dataset(xy[:, :d], xy[:, d])
    enum = enumeration_solve(inst, n, loss)
    brute = brute_force_solve(inst, n, loss)
    assert enum.status == "optimal"
    assert abs(enum.cost - brute.cost) <= ZERO_TOL


# the hardness reduction's data: every regressor s_i e_i appears twice, with
# targets s_i and 0, and the sum point closes the instance; a multiset of
# size 4 gives d = 4
@_GATE
@given(st.lists(st.integers(1, 11), min_size=1, max_size=4),
       st.sampled_from([SQUARED, ABSOLUTE]))
def test_enum_equals_brute_on_partition_reductions(s, loss):
    inst = partition_to_instance(PartitionInstance(tuple(s)))
    enum = enumeration_solve(inst.data, inst.n, loss)
    brute = brute_force_solve(inst.data, inst.n, loss)
    assert enum.status == "optimal"
    assert abs(enum.cost - brute.cost) <= ZERO_TOL


# the generator needs N >= n d, so (4, 2) is drawn on the grid only
_NOISY_MAX_N = {(2, 1): 10, (2, 2): 10, (2, 3): 10, (2, 4): 8, (3, 1): 8,
                (3, 2): 8, (4, 1): 6}


@st.composite
def _noisy_sizes(draw):
    """(n, d, N) with n d <= N <= _NOISY_MAX_N[(n, d)]."""
    n, d = draw(st.sampled_from(sorted(_NOISY_MAX_N)), label="(n, d)")
    return n, d, draw(st.integers(n * d, _NOISY_MAX_N[n, d]), label="N")


@settings(_GATE, max_examples=100)
@given(_noisy_sizes(), st.integers(0, 2**32 - 1),
       st.sampled_from(["iid-uniform", "markov"]),
       st.sampled_from([SQUARED, ABSOLUTE]))
def test_enum_equals_brute_on_generator_instances(ndN, seed, process, loss):
    n, d, N = ndN
    inst, _, _ = generate_instance(GeneratorSpec(
        n=n, d=d, N=N, noise_sigma=0.1, seed=seed, mode_process=process))
    enum = enumeration_solve(inst, n, loss)
    brute = brute_force_solve(inst, n, loss)
    assert enum.status == "optimal"
    assert abs(enum.cost - brute.cost) <= ZERO_TOL


@st.composite
def _planted_sizes(draw):
    """(n, d, N) up to (3, 2, 10) and (2, 3, 12)."""
    n = draw(st.sampled_from([2, 3]), label="n")
    d = draw(st.integers(1, 5 - n), label="d")
    return n, d, draw(st.integers(n * d, 16 - 2 * n), label="N")


# zero-noise generator data has a zero-cost fit, so enum must find one and
# noiseless must certify it, at sizes where brute force takes seconds
@settings(_GATE, max_examples=40)
@given(_planted_sizes(), st.integers(0, 2**32 - 1),
       st.sampled_from(["iid-uniform", "markov"]),
       st.sampled_from([SQUARED, ABSOLUTE]))
def test_enum_finds_the_planted_fit(ndN, seed, process, loss):
    n, d, N = ndN
    inst, _, _ = generate_instance(GeneratorSpec(
        n=n, d=d, N=N, seed=seed, mode_process=process))
    enum = enumeration_solve(inst, n, loss)
    assert enum.status == "optimal"
    assert enum.cost <= ZERO_TOL
    certified = noiseless_solve(inst, n)
    assert certified.status == "optimal"
    assert certified.cost <= ZERO_TOL
