"""Per-mode regression, refinement, and the four solve methods."""

import itertools
from math import comb

import numpy as np
import pytest
from scipy.optimize import linprog

from switchreg import (ABSOLUTE, DEFAULT_TOLERANCES, CapsExceededError,
                       Dataset, Labeling, ModelSet, SQUARED, SolverConfig,
                       altmin_solve, assign_modes, brute_force_solve,
                       canonicalize_labels, empirical_cost, enumeration_solve,
                       enumerate_linear_dichotomies, fit_modes,
                       noiseless_solve, refine_alternate, solve_instance,
                       solve_mode_regression)
from switchreg import solvers
from switchreg.core import _canonicalize_arrays
from switchreg.datasets import GeneratorSpec, generate_instance
from switchreg.solvers import CandidateStream, SolveReport

from conftest import random_instance


# ---------------------------------------------------------------------------
# solve_mode_regression


def test_squared_exact_fit():
    w = solve_mode_regression(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]),
                              SQUARED)
    assert np.allclose(w, [1.0], atol=1e-12)


def test_squared_repeated_regressor_takes_mean():
    w = solve_mode_regression(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]),
                              SQUARED)
    assert np.allclose(w, [1.0], atol=1e-9)


def test_absolute_median_ratio():
    x = np.array([[1.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 10.0])
    w = solve_mode_regression(x, y, ABSOLUTE)
    assert np.allclose(w, [0.0], atol=1e-12)
    assert abs(np.abs(y - x @ w).sum() - 10.0) <= 1e-12


def test_empty_subset_gives_zero_vector():
    for loss in (SQUARED, ABSOLUTE):
        w = solve_mode_regression(np.empty((0, 3)), np.empty(0), loss)
        assert w.tolist() == [0.0, 0.0, 0.0]


def test_mode_regression_validates_shapes():
    with pytest.raises(ValueError):
        solve_mode_regression(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                              SQUARED)
    with pytest.raises(ValueError):
        solve_mode_regression(np.array([[1.0]]), np.array([1.0, 2.0]), SQUARED)


def test_absolute_fit_beats_least_squares_on_outlier():
    # L1 should pin the line to the bulk and ignore the outlier
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([1.0, 2.0, 3.0, 40.0])
    w1 = solve_mode_regression(x, y, ABSOLUTE)
    w2 = solve_mode_regression(x, y, SQUARED)
    l1 = np.abs(y - x @ w1).sum()
    l1_ls = np.abs(y - x @ w2).sum()
    assert l1 < l1_ls
    assert np.allclose(w1, [1.0], atol=1e-9)


def _lp_absolute_total(x, y):
    # min sum(t) over (w, t) subject to -t <= y - x w <= t
    k, d = x.shape
    res = linprog(np.r_[np.zeros(d), np.ones(k)],
                  A_ub=np.block([[-x, -np.eye(k)], [x, -np.eye(k)]]),
                  b_ub=np.r_[-y, y],
                  bounds=[(None, None)] * d + [(0, None)] * k, method="highs")
    assert res.status == 0, res.message
    return res.fun


def test_absolute_fit_matches_linear_program():
    # a rank-deficient pair: the least-squares interpolant of both points
    # totals 1.2, interpolating the second point alone gives the optimum 1.0
    cases = [(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 0.0]))]
    rng = np.random.default_rng(15)
    for trial in range(420):
        d, k = 1 + trial % 3, 1 + (trial // 3) % 7
        cases.append((rng.integers(-2, 3, size=(k, d)).astype(float),
                      rng.integers(-2, 3, size=k).astype(float)))
    rank_deficient = 0
    for x, y in cases:
        w = solve_mode_regression(x, y, ABSOLUTE)
        lp = _lp_absolute_total(x, y)
        assert abs(np.abs(y - x @ w).sum() - lp) <= 1e-9, (x, y)
        rank_deficient += np.linalg.matrix_rank(x) < min(x.shape)
    assert rank_deficient >= 10, rank_deficient


# ---------------------------------------------------------------------------
# fit_modes


def test_fit_modes_two_exact_subfits(noiseless_four_points):
    data, _, labeling = noiseless_four_points
    models = fit_modes(data, labeling, 2, SQUARED)
    assert np.allclose(models.w, [[2.0], [-1.0]], atol=1e-12)


def test_fit_modes_empty_mode_convention():
    data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
    models = fit_modes(data, Labeling(np.array([1, 1])), 2, SQUARED)
    assert models.w[1].tolist() == [0.0]


def test_fit_modes_single_point_interpolation():
    data = Dataset(np.array([[2.0], [4.0]]), np.array([6.0, -8.0]))
    models = fit_modes(data, Labeling(np.array([1, 2])), 2, SQUARED)
    assert np.allclose(models.w, [[3.0], [-2.0]], atol=1e-12)


def test_fit_modes_is_locally_optimal_for_squared():
    rng = np.random.default_rng(7)
    data = Dataset(rng.standard_normal((9, 2)), rng.standard_normal(9))
    labeling = Labeling(rng.integers(1, 3, size=9))
    models = fit_modes(data, labeling, 2, SQUARED)
    base = empirical_cost(data, models, labeling, SQUARED)
    for j in range(2):
        for k in range(2):
            for delta in (1e-4, -1e-4):
                w = models.w.copy()
                w[j, k] += delta
                assert empirical_cost(data, ModelSet(w), labeling, SQUARED) \
                    >= base - 1e-15


# ---------------------------------------------------------------------------
# refine_alternate


def test_refine_fixpoint_at_optimum(noiseless_four_points):
    data, models, labeling = noiseless_four_points
    res = refine_alternate(data, models, SQUARED)
    assert np.array_equal(res.labeling.q, labeling.q)
    assert np.allclose(res.models.w, models.w, atol=1e-12)
    assert res.costs[0] == 0.0 and res.costs[-1] == 0.0


def test_refine_converges_from_nearby_start(noiseless_four_points):
    data, _, _ = noiseless_four_points
    res = refine_alternate(data, ModelSet(np.array([[1.9], [-0.9]])), SQUARED)
    models, labeling = res          # unpacks as a pair
    assert np.allclose(models.w, [[2.0], [-1.0]], atol=1e-12)
    assert empirical_cost(data, models, labeling, SQUARED) <= 1e-24


def test_refine_trace_monotone_on_random_starts():
    rng = np.random.default_rng(8)
    zero_tol = DEFAULT_TOLERANCES.zero_tol
    for _ in range(30):
        data, _, _ = random_instance(int(rng.integers(1000)), N=9, sigma=0.2)
        res = refine_alternate(data, ModelSet(rng.standard_normal((2, 1))),
                               SQUARED)
        diffs = np.diff(res.costs)
        assert np.all(diffs <= zero_tol)


def test_refine_output_is_assignment_fixpoint():
    rng = np.random.default_rng(9)
    data, _, _ = random_instance(3, n=2, d=2, N=10, sigma=0.15)
    res = refine_alternate(data, ModelSet(rng.standard_normal((2, 2))), SQUARED)
    again = assign_modes(data, res.models, SQUARED)
    assert np.array_equal(again.q, res.labeling.q)


# ---------------------------------------------------------------------------
# brute force


def test_brute_four_point_noiseless(noiseless_four_points):
    data, _, _ = noiseless_four_points
    report = brute_force_solve(data, 2, SQUARED)
    assert report.cost <= 1e-24
    assert report.labeling.q.tolist() == [1, 1, 2, 2]
    assert np.allclose(report.models.w, [[2.0], [-1.0]], atol=1e-12)
    assert report.status == "optimal"


def test_brute_perturbed_outputs(perturbed_four_points):
    report = brute_force_solve(perturbed_four_points, 2, SQUARED)
    assert report.labeling.q.tolist() == [1, 1, 2, 2]
    # hand-computed least-squares subfits: w = (1.98, -1.02),
    # residual averages (0.018 + 0.016) / 4
    assert abs(report.cost - 0.0085) <= 1e-12
    assert np.allclose(report.models.w, [[1.98], [-1.02]], atol=1e-12)


def test_brute_single_mode_is_least_squares():
    rng = np.random.default_rng(11)
    data = Dataset(rng.standard_normal((6, 2)), rng.standard_normal(6))
    report = brute_force_solve(data, 1, SQUARED)
    w = solve_mode_regression(data.x, data.y, SQUARED)
    assert np.allclose(report.models.w[0], w, atol=1e-12)
    assert report.candidates_examined == 1


def test_brute_refuses_over_budget():
    data, _, _ = random_instance(0, N=25)
    with pytest.raises(CapsExceededError):
        brute_force_solve(data, 2, SQUARED, budget=1000)


def test_brute_canonical_skipping_count():
    # canonical labelings of 4 points over 2 modes: q_1 fixed, 2^3 left
    data, _, _ = random_instance(1, N=4)
    report = brute_force_solve(data, 2, SQUARED)
    assert report.candidates_examined == 8


# ---------------------------------------------------------------------------
# candidate stream


def _labelings(stream):
    """The (K, N) 0-based label rows of the stream's partitions, in order:
    member m takes label m, the dead points the first member."""
    return stream.regions[np.array(list(stream))].argmax(axis=1)


def test_stream_contains_trivial_and_optimal_labelings():
    data = Dataset(np.array([[1.0], [2.0], [-1.5]]),
                   np.array([2.1, 3.9, 1.4]))
    stream = CandidateStream(data, 2)
    emitted = {tuple((q + 1).tolist()) for q in _labelings(stream)}
    assert (1, 1, 1) in emitted     # constant classifier, mode 2 empty
    best = brute_force_solve(data, 2, SQUARED)
    assert best.labeling.as_tuple() in emitted


def test_stream_contains_brute_optimum_on_noisy_data():
    for seed in range(5):
        data, _, _ = random_instance(seed, N=6)
        emitted = {tuple((q + 1).tolist())
                   for q in _labelings(CandidateStream(data, 2))}
        best = brute_force_solve(data, 2, SQUARED)
        assert best.labeling.as_tuple() in emitted


def test_stream_contains_three_mode_model_labelings():
    # every mode's set under a model set is an AND of n-1 pool rows, so it
    # is a region, and the labeling is a partition into regions
    rng = np.random.default_rng(14)
    cases = [(1, 6 + seed % 3, seed) for seed in range(6)] + \
        [(2, 8, seed) for seed in range(2)]
    for d, N, seed in cases:
        data, _, _ = random_instance(seed, n=3, d=d, N=N)
        stream = CandidateStream(data, 3)
        index = {row: i for i, row in enumerate(map(tuple, stream.regions.tolist()))}
        parts = set(map(tuple, stream.partitions.tolist()))
        induced = set()
        for _ in range(200):
            models = ModelSet(rng.standard_normal((3, d)) * 2.0)
            q = assign_modes(data, models, SQUARED).q - 1
            members = [tuple((q == j).tolist()) for j in range(3)]
            assert all(m in index for m in members), (d, N, seed)
            induced.add(tuple(sorted(index[m] for m in members)))
        assert induced <= parts, (d, N, seed, induced - parts)
        assert len(induced) > 3


def test_stream_regions_and_partitions_match_literal_loops():
    # regions: the distinct ANDs of two pool rows; partitions: every region
    # triple, members ascending, that splits the points exactly
    for d, N in ((1, 6), (1, 7), (2, 6)):
        data, _, _ = random_instance(d + N, n=3, d=d, N=N)
        stream = CandidateStream(data, 3)
        rows = stream.pair_products.tolist()
        ands = {tuple(i and j for i, j in zip(a, b)) for a in rows for b in rows}
        assert set(map(tuple, stream.regions.tolist())) == ands
        assert len(stream.regions) == len(ands)
        member = stream.regions.astype(int)
        splits = {t for t in itertools.combinations_with_replacement(
                      range(len(member)), 3)
                  if (member[list(t)].sum(axis=0) == 1).all()}
        assert set(map(tuple, stream.partitions.tolist())) == splits
        assert len(stream.partitions) == len(splits)


def test_stream_contains_the_majority_vote():
    # literal loops over every pool triple (a, b, c) = (p01, p02, p12):
    # every labeling the pairwise vote gives with a Condorcet winner at
    # each point is a partition's labeling
    for seed in range(3):
        data, _, _ = random_instance(seed, n=3, d=1, N=6)
        stream = CandidateStream(data, 3)
        vote = set()
        for a, b, c in itertools.product(stream.pair_products.astype(int),
                                         repeat=3):
            votes = np.stack([a + b, 1 - a + c, 2 - b - c])
            if (votes.max(axis=0) == 2).all():
                vote.add(tuple(_canonicalize_arrays(votes.argmax(axis=0)).tolist()))
        emitted = set(map(tuple, _labelings(stream).tolist()))
        assert vote <= emitted and len(vote) > 3
    # at d = 2, N = 8 the partitions are all 1,094 canonical labelings with
    # at most three modes, which single pool rows as regions fall short of
    for seed in range(3):
        data, _, _ = random_instance(seed, n=3, d=2, N=8)
        labels = _labelings(CandidateStream(data, 3))
        assert len(set(map(tuple, labels.tolist()))) == len(labels) == 1094


def test_stream_respects_dimension_caps():
    data = Dataset(np.random.default_rng(0).standard_normal((8, 4)),
                   np.random.default_rng(1).standard_normal(8))
    with pytest.raises(CapsExceededError):
        CandidateStream(data, 2)
    data2, _, _ = random_instance(0, N=8)
    with pytest.raises(CapsExceededError):
        CandidateStream(data2, 4)


def test_stream_refuses_budget_with_count_in_message():
    # n = 2: the search tries the P regions holding the first point
    data, _, _ = random_instance(2, N=10)
    P = len(CandidateStream(data, 2).pair_products)
    with pytest.raises(CapsExceededError,
                       match=rf"^{P} classifier combinations exceed the "
                             rf"budget {P - 1}$"):
        CandidateStream(data, 2, SolverConfig(candidate_budget=P - 1))
    # n = 3: the P**2 region pairs are refused before any search
    data3, _, _ = random_instance(2, n=3, d=1, N=40)
    P = len(CandidateStream(data3, 3).pair_products)
    with pytest.raises(CapsExceededError,
                       match=rf"^{P * P} classifier combinations exceed "
                             rf"the budget {P * P - 1}$"):
        CandidateStream(data3, 3, SolverConfig(candidate_budget=P * P - 1))
    # with the region pairs allowed, the partial partitions the search keeps
    # are refused
    with pytest.raises(CapsExceededError, match=rf"the budget {P * P}$") as err:
        CandidateStream(data3, 3, SolverConfig(candidate_budget=P * P))
    assert int(str(err.value).split()[0]) > P * P


def test_stream_admits_what_the_region_join_admitted():
    # the label-row join built P**2 region pairs and then |R| * P
    # completions; a budget of their maximum still builds the partitions,
    # on data where the search tests more (partial partition, region) pairs
    # than that, so the budget is charged for the partials kept
    data = generate_instance(GeneratorSpec(n=3, d=1, N=80, noise_sigma=0.1,
                                           seed=1))[0]
    stream = CandidateStream(data, 3)
    P, R = len(stream.pair_products), len(stream.regions)
    budget = max(P * P, R * P)
    def first(rows):        # each row's first point, N if it has none
        return np.where(rows.any(axis=1), rows.argmax(axis=1), data.N)

    # the first member holds point 0; each is tried against every region
    # starting at the first point it leaves
    lead = first(stream.regions)
    tests = sum(int((lead == at).sum()) for at in first(~stream.regions[lead == 0]))
    assert tests > budget
    small = CandidateStream(data, 3, SolverConfig(candidate_budget=budget))
    assert np.array_equal(small.partitions, stream.partitions)
    report = enumeration_solve(data, 3, SQUARED,
                               SolverConfig(candidate_budget=budget))
    assert report.status == "optimal"


def test_stream_count_within_closed_form_bound():
    d, N = 1, 7
    for n in (2, 3):
        data, _, _ = random_instance(3, n=n, d=d, N=N)
        stream = CandidateStream(data, n)
        rows = np.array(list(stream))
        pairs = n * (n - 1) // 2
        bound = (2 ** (d + 1) * comb(N, d) * 2 ** d * comb(N, d - 1)) ** pairs
        assert stream.combinations_examined == \
            len(stream.pair_products) ** pairs
        assert stream.combinations_examined <= bound
        # partitions are distinct, members ascend, and each point is in
        # exactly one member; their labelings are canonical
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert np.all(np.diff(rows, axis=1) >= 0)
        assert np.all(stream.regions[rows].sum(axis=1) == 1)
        labels = _labelings(stream)
        assert np.array_equal(_canonicalize_arrays(labels), labels)


def test_stream_single_mode():
    data, _, _ = random_instance(4, N=5)
    stream = CandidateStream(data, 1)
    parts = list(stream)
    assert len(parts) == 1 and parts[0].shape == (1,)
    assert stream.regions[parts[0][0]].all()


_HALF_POOL_SIZES = [(1, 12), (2, 10), (3, 8)]


@pytest.mark.parametrize("d, N", _HALF_POOL_SIZES,
                         ids=[f"d{d}" for d, _ in _HALF_POOL_SIZES])
def test_two_mode_stream_is_half_the_products(d, N):
    # every G x H product and its negation give one canonical labeling, so
    # the n = 2 stream keeps half the pool, one partition {p, ~p} per row
    for seed in range(3):
        data, _, _ = random_instance(seed, d=d, N=N)
        assert np.linalg.norm(data.x, axis=1).min() > 0
        gs = enumerate_linear_dichotomies(data.lifted()).signs
        hs = enumerate_linear_dichotomies(data.x).signs
        products = (gs[:, None] == hs[None]).reshape(-1, N)
        full = _canonicalize_arrays(np.where(products, 0, 1))
        two, three = CandidateStream(data, 2), CandidateStream(data, 3)
        rows = _labelings(two)
        assert {tuple(q) for q in rows.tolist()} == \
            {tuple(q) for q in full.tolist()}
        assert len(two.partitions) == len(two.pair_products)
        assert 2 * len(two.pair_products) == len(three.pair_products)
        assert 2 * two.combinations_examined == len(np.unique(products, axis=0))
        assert np.array_equal(_canonicalize_arrays(rows), rows)
        assert len(np.unique(rows, axis=0)) == len(rows)


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
@pytest.mark.parametrize("zero_at", [0, 4])
def test_two_mode_stream_with_a_zero_regressor(zero_at, loss):
    # the half pool gives a dead point the first mode's label; the dropped
    # live negations move it to the other mode at equal cost
    for d in (1, 2, 3):
        for seed in range(2):
            data, _, _ = random_instance(seed, d=d, N=7)
            x = data.x.copy()
            x[zero_at] = 0.0
            data = Dataset(x, data.y)
            enum = enumeration_solve(data, 2, loss)
            brute = brute_force_solve(data, 2, loss)
            assert enum.status == "optimal"
            assert abs(enum.cost - brute.cost) <= \
                DEFAULT_TOLERANCES.zero_tol, (d, seed)


@pytest.mark.parametrize("n", [2, 3])
def test_enum_without_live_points_skips_the_geometry(monkeypatch, n):
    # with every regressor zero all labelings cost the same; no dichotomy
    # of an empty point set is asked for
    def refuse(*args, **kwargs):
        raise AssertionError("no live point to classify")
    monkeypatch.setattr(solvers, "enumerate_linear_dichotomies", refuse)
    data = Dataset(np.zeros((4, 1)), np.array([1.0, 2.0, 0.0, 3.0]))
    for loss, cost in ((SQUARED, 3.5), (ABSOLUTE, 1.5)):
        report = enumeration_solve(data, n, loss)
        assert report.status == "optimal"
        assert report.cost == cost


# ---------------------------------------------------------------------------
# enumeration solver


def test_enum_four_point_noiseless(noiseless_four_points):
    data, _, _ = noiseless_four_points
    report = enumeration_solve(data, 2, SQUARED)
    assert report.cost <= 1e-24
    assert report.labeling.q.tolist() == [1, 1, 2, 2]
    assert report.status == "optimal"


def test_enum_matches_brute_on_random_instances():
    for seed in range(8):
        data, _, _ = random_instance(seed, d=1, N=7)
        enum = enumeration_solve(data, 2, SQUARED)
        brute = brute_force_solve(data, 2, SQUARED)
        assert abs(enum.cost - brute.cost) <= 1e-9


def test_enum_matches_brute_absolute_loss():
    for seed in range(4):
        data, _, _ = random_instance(seed, d=1, N=6)
        enum = enumeration_solve(data, 2, ABSOLUTE)
        brute = brute_force_solve(data, 2, ABSOLUTE)
        assert abs(enum.cost - brute.cost) <= 1e-9


def test_enum_tie_set_within_pair_bound_at_optimum():
    for seed in range(6):
        d = 1 + seed % 2
        data, _, _ = random_instance(seed, d=d, N=8)
        report = enumeration_solve(data, 2, SQUARED)
        lab = assign_modes(data, report.models, SQUARED)
        assert len(lab.tie_set) <= (2 * d + 1) * 2 * 1 // 2


def test_enum_report_cost_consistent():
    data, _, _ = random_instance(5, N=8)
    report = enumeration_solve(data, 2, SQUARED)
    recomputed = empirical_cost(data, report.models, report.labeling, SQUARED)
    assert abs(recomputed - report.cost) <= DEFAULT_TOLERANCES.zero_tol


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=["squared", "absolute"])
def test_enum_three_modes_in_the_plane_within_default_budget(loss):
    # n = 3, d = 2, N = 8 needs P**3 > 5e6 combinations, over the default
    # budget; the region search builds far fewer rows
    data, _, _ = random_instance(8, n=3, d=2, N=8)
    enum = enumeration_solve(data, 3, loss, SolverConfig())
    brute = brute_force_solve(data, 3, loss)
    assert enum.status == "optimal"
    assert enum.candidates_examined > SolverConfig().candidate_budget
    assert abs(enum.cost - brute.cost) <= DEFAULT_TOLERANCES.zero_tol


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=["squared", "absolute"])
def test_enum_three_modes_in_the_plane_at_twelve_points(loss):
    # the region pairs (P**2 < 1e6) and the search fit the default budget,
    # where the peel join built 3.1M completions; brute force takes 3^11
    # labelings, so a planted zero-cost fit and altmin are the references
    planted, _, _ = generate_instance(GeneratorSpec(n=3, d=2, N=12, seed=12))
    noisy, _, _ = random_instance(12, n=3, d=2, N=12)
    enum = enumeration_solve(planted, 3, loss)
    assert enum.status == "optimal"
    assert enum.cost <= DEFAULT_TOLERANCES.zero_tol
    enum = enumeration_solve(noisy, 3, loss)
    assert enum.status == "optimal"
    assert enum.cost <= altmin_solve(noisy, 3, loss).cost + \
        DEFAULT_TOLERANCES.zero_tol


def test_enum_result_independent_of_chunk_size(monkeypatch):
    two_modes, _, _ = random_instance(6, d=2, N=9)
    three_modes, _, _ = random_instance(6, n=3, d=1, N=7)
    for (data, n), loss in itertools.product(
            ((two_modes, 2), (three_modes, 3)), (SQUARED, ABSOLUTE)):
        reports = []
        for score_chunk in (1, 7, solvers._SCORE_CHUNK):
            monkeypatch.setattr(solvers, "_SCORE_CHUNK", score_chunk)
            reports.append(enumeration_solve(data, n, loss))
        a = reports[0]
        for b in reports[1:]:
            assert a.cost == b.cost
            assert a.labeling.q.tolist() == b.labeling.q.tolist()
            assert np.array_equal(a.models.w, b.models.w)
            assert a.candidates_examined == b.candidates_examined


def _grid_points(rng, N, d):
    """Integer grid in {-2..2}; all-zero regressors are redrawn."""
    x = rng.integers(-2, 3, size=(N, d)).astype(float)
    for i in np.flatnonzero(~x.any(axis=1)):
        while not x[i].any():
            x[i] = rng.integers(-2, 3, size=d)
    return x, rng.integers(-2, 3, size=N).astype(float)


def test_batched_scores_equal_per_candidate_fit():
    # each region's batched cost is the loss total of solve_mode_regression
    # on its points, empty, below d and rank-deficient regions included
    rng = np.random.default_rng(12)
    seen = {"empty": 0, "small": 0, "rank_deficient": 0}
    for trial in range(36):
        d, N = 1 + trial % 3, 7 + trial % 3
        if trial % 4 < 2:
            x, y = rng.standard_normal((N, d)), rng.standard_normal(N)
        else:
            x, y = _grid_points(rng, N, d)
        rows = rng.random((60, N)) < rng.choice([0.2, 0.5, 0.8], size=(60, 1))
        rows[0] = False                             # empty
        rows[1] = False
        rows[1, :d - 1] = True                      # below d points
        for row in rows:
            k = row.sum()
            seen["empty"] += k == 0
            seen["small"] += 0 < k < d
            seen["rank_deficient"] += k >= d and \
                np.linalg.matrix_rank(x[row]) < d
        for loss in (SQUARED, ABSOLUTE):
            costs = solvers._region_costs(x, y, rows, loss)
            for row, cost in zip(rows, costs):
                w = solve_mode_regression(x[row], y[row], loss)
                exact = loss.residual_loss(y[row] - x[row] @ w).sum()
                assert abs(cost - exact) <= 1e-9, (trial, loss, row)
    assert all(v > 0 for v in seen.values()), seen


def _grid_solves_matching_brute(rng, n, trials, N0):
    # seeded integer-grid draws: d alternates 1, 2, N alternates N0, N0 + 1,
    # the loss switches every 4 trials; every draw must equal brute force,
    # and the draws with a zero regressor are counted
    with_zero = 0
    for trial in range(trials):
        d, N = 1 + trial % 2, N0 + (trial // 2) % 2
        loss = (SQUARED, ABSOLUTE)[(trial // 4) % 2]
        data = Dataset(rng.integers(-2, 3, size=(N, d)).astype(float),
                       rng.integers(-2, 3, size=N).astype(float))
        enum = enumeration_solve(data, n, loss)
        brute = brute_force_solve(data, n, loss)
        assert abs(enum.cost - brute.cost) <= DEFAULT_TOLERANCES.zero_tol, \
            (n, trial, enum.cost, brute.cost)
        with_zero += not data.x.any(axis=1).all()
    return with_zero


def test_enum_matches_brute_on_integer_grid():
    assert _grid_solves_matching_brute(np.random.default_rng(2024),
                                       2, 40, 7) >= 19
    assert _grid_solves_matching_brute(np.random.default_rng(2025),
                                       3, 20, 6) >= 10
    # n = 3 at N 7-8: at N = 8, d = 2, P**3 exceeds the default budget on
    # some draws, while the region search builds far fewer rows
    assert _grid_solves_matching_brute(np.random.default_rng(2026),
                                       3, 12, 7) >= 6


def test_enum_position_warning_on_degenerate_data():
    # duplicated regressor rows break general position; the dichotomy
    # enumeration is exact anyway, so the optimum is certified, unwarned
    x = np.array([[1.0], [1.0], [1.0], [2.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    report = enumeration_solve(Dataset(x, y), 2, SQUARED)
    assert report.status == "optimal"
    assert report.warnings == ()
    brute = brute_force_solve(Dataset(x, y), 2, SQUARED)
    assert abs(report.cost - brute.cost) <= DEFAULT_TOLERANCES.zero_tol


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
@pytest.mark.parametrize("x_scale, y_scale", [(1e-10, 1.0), (1.0, 1e10),
                                              (1e-10, 1e10)],
                         ids=["tiny-x", "huge-y", "both"])
def test_enum_matches_brute_on_widely_scaled_data(x_scale, y_scale, loss):
    # the optimum is scale-covariant, so no candidate may go missing when
    # the regressors and the targets differ by many orders of magnitude
    rng = np.random.default_rng(41)
    for d, N in ((1, 7), (2, 6)):
        for _ in range(3):
            data = Dataset(x_scale * rng.standard_normal((N, d)),
                           y_scale * rng.standard_normal(N))
            enum = enumeration_solve(data, 2, loss)
            brute = brute_force_solve(data, 2, loss)
            assert enum.status == "optimal"
            assert np.isclose(enum.cost, brute.cost, rtol=1e-9,
                              atol=DEFAULT_TOLERANCES.zero_tol)


def _few_live_points():
    # at most d + 1 points with a nonzero regressor
    rng = np.random.default_rng(31)
    cases = [("hand", Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                              np.array([1.0, 2.0, 0.0])), 2)]
    for d in (1, 2, 3):
        x = rng.integers(-2, 3, size=(d + 1, d)).astype(float)
        cases.append((f"d{d}-N{d + 1}",
                      Dataset(x, rng.integers(-2, 3, size=d + 1).astype(float)),
                      2 + d % 2))
    cases.append(("all-zero-x",
                  Dataset(np.zeros((4, 2)), np.array([1.0, -2.0, 0.0, 3.0])), 2))
    return cases


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
@pytest.mark.parametrize("name, data, n", _few_live_points(),
                         ids=[c[0] for c in _few_live_points()])
def test_enum_solves_tiny_and_zero_heavy_instances(name, data, n, loss):
    enum = enumeration_solve(data, n, loss)
    brute = brute_force_solve(data, n, loss)
    assert enum.status == "optimal"
    assert abs(enum.cost - brute.cost) <= DEFAULT_TOLERANCES.zero_tol


# ---------------------------------------------------------------------------
# noiseless solver


def test_noiseless_four_points(noiseless_four_points):
    data, _, _ = noiseless_four_points
    report = noiseless_solve(data, 2)
    assert report.status == "optimal"
    assert report.cost <= 1e-24
    assert np.allclose(sorted(report.models.w.ravel()), [-1.0, 2.0],
                       atol=1e-12)


def test_noiseless_single_underlying_mode():
    x = np.linspace(1, 5, 5)[:, None]
    data = Dataset(x, x.ravel().copy())
    report = noiseless_solve(data, 2)
    assert report.status == "optimal"
    assert report.cost <= 1e-24
    assert np.allclose(report.models.w, [[1.0], [1.0]], atol=1e-12)


def test_noiseless_on_noisy_data_infeasible():
    data, _, _ = random_instance(7, N=10, sigma=0.1)
    report = noiseless_solve(data, 2)
    assert report.status == "infeasible"
    assert report.cost > 0


def test_noiseless_respects_budget():
    data, _, _ = random_instance(8, d=2, N=30, sigma=0.0)
    with pytest.raises(CapsExceededError):
        noiseless_solve(data, 2, SolverConfig(candidate_budget=10))


# ---------------------------------------------------------------------------
# alternating minimization


def test_altmin_recovers_noiseless_instance(noiseless_four_points):
    data, _, _ = noiseless_four_points
    report = altmin_solve(data, 2, SQUARED, restarts=20, seed=0)
    assert report.cost <= 1e-20
    assert report.status == "heuristic"
    assert report.candidates_examined == 20


def test_altmin_same_seed_identical_reports():
    data, _, _ = random_instance(9, N=9)
    a = altmin_solve(data, 2, SQUARED, restarts=10, seed=42)
    b = altmin_solve(data, 2, SQUARED, restarts=10, seed=42)
    assert a.cost == b.cost
    assert a.labeling.q.tolist() == b.labeling.q.tolist()
    assert np.array_equal(a.models.w, b.models.w)


def test_altmin_local_minimum_stays_above_exact_cost():
    # this seed is known to strand a single restart in a local minimum
    data, _, _ = generate_instance(
        GeneratorSpec(n=2, d=1, N=8, noise_sigma=0.1, seed=4))
    exact = enumeration_solve(data, 2, SQUARED)
    stuck = altmin_solve(data, 2, SQUARED, restarts=1, seed=0)
    assert stuck.cost > exact.cost + 1e-6
    assert stuck.cost >= exact.cost - 1e-9


def test_altmin_validates_restarts():
    data, _, _ = random_instance(10, N=6)
    with pytest.raises(ValueError):
        altmin_solve(data, 2, SQUARED, restarts=0)


# ---------------------------------------------------------------------------
# dispatcher and report type


def test_solve_instance_dispatch(noiseless_four_points):
    data, _, _ = noiseless_four_points
    for method in ("brute", "enum", "noiseless", "altmin"):
        report = solve_instance(data, 2, SQUARED, method)
        assert report.method == method
        assert report.cost <= 1e-12
    with pytest.raises(ValueError):
        solve_instance(data, 2, SQUARED, "simplex")


# one instance per mode count; noiseless scores squared loss only
_CONTRACT_CASES = [(method, n, loss) for method in solvers.SOLVER_METHODS
                   for n in (2, 3)
                   for loss in ((SQUARED,) if method == "noiseless"
                                else (SQUARED, ABSOLUTE))]


@pytest.mark.parametrize("method,n,loss", _CONTRACT_CASES)
def test_every_solver_keeps_the_report_contract(method, n, loss):
    data = random_instance(4, n=n, d=2 if n == 2 else 1, N=8 if n == 2 else 7)[0]
    report = solve_instance(data, n, loss, method)
    assert report.cost == empirical_cost(data, report.models, report.labeling,
                                         loss)
    assert canonicalize_labels(report.labeling, n).q.tolist() \
        == report.labeling.q.tolist()
    assert report.labeling.tie_set == assign_modes(
        data, report.models, loss, DEFAULT_TOLERANCES).tie_set


def test_report_status_validated():
    with pytest.raises(ValueError):
        SolveReport(method="enum", cost=0.0,
                    models=ModelSet(np.array([[1.0]])),
                    labeling=Labeling(np.array([1])),
                    candidates_examined=1, elapsed=0.0, status="done")


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(candidate_budget=0)
