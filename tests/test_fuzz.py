"""Differential fuzz gate for the exact dichotomy enumeration and solver.

Hypothesis draws small integer-grid inputs, where repeated, collinear and
coplanar points, zero regressors and exact residual ties are common, and
small Partition multisets, whose reductions repeat every regressor. Past
brute force's reach, zero-noise generator instances plant an exact fit. The
runs are derandomized and bounded, so the gate is deterministic and fast.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from switchreg import (ABSOLUTE, DEFAULT_TOLERANCES, SQUARED, Dataset,
                       GeneratorSpec, PartitionInstance, brute_force_solve,
                       enumerate_linear_dichotomies, enumeration_solve,
                       generate_instance, noiseless_solve,
                       partition_to_instance, sweep_dichotomies_oracle)

from conftest import lp_feasible_patterns

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
    assert np.all(margins > DEFAULT_TOLERANCES.sign_tol)


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
    assert result.patterns() == sweep_dichotomies_oracle(points).patterns()
    _assert_strict(scaled, result)


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


@settings(_GATE, max_examples=100)
@given(st.data(), st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
       st.sampled_from([SQUARED, ABSOLUTE]))
def test_enum_equals_brute_on_grid_instances(data, nd, loss):
    n, d = nd
    xy = np.array(_grid_rows(data.draw, d + 1, 2, 7 if n == 2 else 8,
                             "rows (x, y)"), dtype=float)
    inst = Dataset(xy[:, :d], xy[:, d])
    enum = enumeration_solve(inst, n, loss)
    brute = brute_force_solve(inst, n, loss)
    assert enum.status == "optimal"
    assert abs(enum.cost - brute.cost) <= DEFAULT_TOLERANCES.zero_tol


# the hardness reduction's data: every regressor s_i e_i appears twice, with
# targets s_i and 0, and the sum point closes the instance
@_GATE
@given(st.lists(st.integers(1, 11), min_size=1, max_size=3),
       st.sampled_from([SQUARED, ABSOLUTE]))
def test_enum_equals_brute_on_partition_reductions(s, loss):
    inst = partition_to_instance(PartitionInstance(tuple(s)))
    enum = enumeration_solve(inst.data, inst.n, loss)
    brute = brute_force_solve(inst.data, inst.n, loss)
    assert enum.status == "optimal"
    assert abs(enum.cost - brute.cost) <= DEFAULT_TOLERANCES.zero_tol


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
    assert enum.cost <= DEFAULT_TOLERANCES.zero_tol
    certified = noiseless_solve(inst, n)
    assert certified.status == "optimal"
    assert certified.cost <= DEFAULT_TOLERANCES.zero_tol
