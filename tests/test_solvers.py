"""Per-mode regression, refinement, and the four solve methods."""

import itertools
from math import comb

import numpy as np
import pytest
from scipy.optimize import linprog

from switchreg import (ABSOLUTE, CapsExceededError, Dataset, Labeling,
                       ModelSet, SQUARED, SolverConfig, ZERO_TOL,
                       altmin_solve, assign_modes, brute_force_solve,
                       canonicalize_labels, empirical_cost, enumeration_solve,
                       enumerate_linear_dichotomies, fit_modes,
                       noiseless_solve, refine_alternate, solve_instance,
                       solve_mode_regression)
from switchreg import geometry, solvers
from switchreg.core import _canonicalize_arrays
from switchreg.datasets import GeneratorSpec, generate_instance
from switchreg.hardness import PartitionInstance, partition_to_instance
from switchreg.solvers import CandidateStream, SolveReport

from conftest import lstsq_brute_cost, random_instance, report_digest


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


def test_squared_fit_overflowing_normal_equations_is_lstsq_quietly():
    # the normal equations give w_1 = 1e309 = inf; the fit is lstsq's, with
    # no numpy warning (an error in this suite)
    x = np.array([[1e-150, 0.0], [0.0, 1.0]])
    y = np.array([1e159, 1.0])
    w = solve_mode_regression(x, y, SQUARED)
    assert np.array_equal(w, np.linalg.lstsq(x, y, rcond=None)[0])
    assert np.isfinite(w).all()


def test_squared_fit_of_near_collinear_points_is_least_squares():
    # two points fitted exactly by one model, whose Gram matrix has
    # cond 3e16, where the normal equations with a ridge cost 0.25
    x = np.array([[2.0, 1.0], [2.0, 1.0 + 1.6e-8]])
    y = np.array([1.0, 0.0])
    w = solve_mode_regression(x, y, SQUARED)
    assert np.square(y - x @ w).sum() <= 1e-12
    costs, _ = solvers._region_costs(x, y, np.ones((1, 2), dtype=bool),
                                     SQUARED, None)
    assert costs[0] <= 1e-12
    assert brute_force_solve(Dataset(x, y), 1, SQUARED).cost <= 1e-12


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
    for _ in range(30):
        data, _, _ = random_instance(int(rng.integers(1000)), N=9, sigma=0.2)
        res = refine_alternate(data, ModelSet(rng.standard_normal((2, 1))),
                               SQUARED)
        diffs = np.diff(res.costs)
        assert np.all(diffs <= ZERO_TOL)


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
    with pytest.raises(CapsExceededError,
                       match=r"^2\^25 labelings exceed the budget 1000$"):
        brute_force_solve(data, 2, SQUARED, SolverConfig(candidate_budget=1000))


def test_brute_refuses_labelings_beyond_float_range():
    # 2^1100 is past the largest float; a float count overflowed here
    data = Dataset(np.ones((1100, 1)), np.zeros(1100))
    with pytest.raises(CapsExceededError,
                       match=r"^2\^1100 labelings exceed the budget 2000000$"):
        brute_force_solve(data, 2, SQUARED)


def test_brute_canonical_skipping_count():
    # canonical labelings of 4 points over 2 modes: q_1 fixed, 2^3 left
    data, _, _ = random_instance(1, N=4)
    report = brute_force_solve(data, 2, SQUARED)
    assert report.candidates_examined == 8


@pytest.mark.parametrize("chunk", [None, 3, 1],
                         ids=["default", "chunk3", "chunk1"])
def test_table_fit_equals_own_pool_fit(monkeypatch, chunk):
    # brute's absolute-loss fit of a mode, read off the table of all the
    # points, is bit-for-bit _absolute_fit over _interpolants of the mode's
    # own points: grid data with zero regressors and repeated rows, modes
    # below d points and rank-deficient modes. Once a size spans several
    # chunks the two pools chunk it differently, so this rests on chunk
    # invariance; chunk 3 splits each size over several chunks, chunk 1
    # gives every subset its own chunk and leaves most of a mode's pool
    # chunks empty
    if chunk is not None:
        monkeypatch.setattr(solvers, "_SCORE_CHUNK", chunk)
    rng = np.random.default_rng(17)
    seen = {"zero": 0, "repeated": 0, "small": 0, "rank_deficient": 0}
    for trial in range(24):
        d, N = 1 + trial % 3, 7 + trial % 3
        x = rng.integers(-2, 3, size=(N, d)).astype(float)
        y = rng.integers(-2, 3, size=N).astype(float)
        x[N - 1], y[N - 1] = x[0], y[0]
        seen["zero"] += not x.any(axis=1).all()
        seen["repeated"] += len(np.unique(x, axis=0)) < N
        table = list(solvers._interpolants(x, y))
        masks = rng.random((12, N)) < rng.choice([0.3, 0.6, 0.9], size=(12, 1))
        masks[0] = False
        masks[0, :d - 1] = True                     # below d points
        masks[1] = x[:, 0] == x[0, 0]               # shares a coordinate
        for mask in masks[masks.any(axis=1)]:
            k = mask.sum()
            seen["small"] += k < d
            seen["rank_deficient"] += k >= d and \
                np.linalg.matrix_rank(x[mask]) < d
            own = solvers._absolute_fit(x[mask], y[mask], (
                ws for _, ws in solvers._interpolants(x[mask], y[mask])))
            read = solvers._mode_fit(x, y, ABSOLUTE, table)(mask)
            assert np.array_equal(read, own), (trial, mask)
    assert all(v > 0 for v in seen.values()), seen


def test_least_breaks_cost_ties_toward_the_smallest_labels():
    # equal models give every labeling the same cost, bit for bit; the
    # least is the smallest label row whatever order the candidates come in
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((6, 1)), rng.standard_normal(6)
    same = np.ones((2, 1))
    tied = [rng.integers(0, 2, size=6) for _ in range(8)]
    worse = [(np.zeros(6, dtype=np.int64), np.array([[9.0], [9.0]]))]
    smallest = min(tied, key=lambda q: tuple(q.tolist()))
    candidates = [(q, same) for q in tied] + worse
    for _ in range(20):
        order = rng.permutation(len(candidates))
        q0, w, seen = solvers._least(x, y, SQUARED,
                                     [candidates[i] for i in order])
        assert q0.tolist() == smallest.tolist() and w is same
        assert seen == len(candidates)


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
@pytest.mark.parametrize("n", [2, 3])
def test_brute_uses_neither_regions_nor_stream(monkeypatch, n, loss):
    # brute is the oracle of the region search, so it must not share it
    rng = np.random.default_rng(n)
    data = Dataset(*_grid_points(rng, 7, 2))
    before = brute_force_solve(data, n, loss)

    def refuse(*args, **kwargs):
        raise AssertionError("brute force reached the region search")

    monkeypatch.setattr(solvers, "_region_costs", refuse)
    monkeypatch.setattr(solvers, "CandidateStream", refuse)
    after = brute_force_solve(data, n, loss)
    assert np.float64(after.cost).tobytes() == np.float64(before.cost).tobytes()
    assert np.array_equal(after.models.w, before.models.w)
    assert after.labeling.q.tolist() == before.labeling.q.tolist()
    assert after.labeling.tie_set == before.labeling.tie_set
    assert (after.status, after.candidates_examined) == \
        (before.status, before.candidates_examined)


def _reference_brute(data, n, loss):
    """Brute force as a literal loop: every canonical labeling, each mode
    fitted by solve_mode_regression, the least picked by _least."""
    x, y = data.x, data.y

    def fitted(q0):
        w = np.zeros((n, data.d))
        for j in range(n):
            if (q0 == j).any():
                w[j] = solve_mode_regression(x[q0 == j], y[q0 == j], loss)
        return w

    q0, w, examined = solvers._least(x, y, loss, (
        (q0, fitted(q0)) for q0 in solvers._canonical_label_arrays(data.N, n)))
    return solvers._report("brute", data, loss, q0, w, 0.0, examined,
                           "optimal")


def _brute_datasets(rng):
    """Grid data with a zero regressor and a repeated row, Gaussian data,
    data with rows scaled by 1e-13, and Partition reductions."""
    for d in (1, 2, 3):
        N = 7 - d // 3
        x = rng.integers(-2, 3, size=(N, d)).astype(float)
        y = rng.integers(-2, 3, size=N).astype(float)
        x[1], x[-1], y[-1] = 0.0, x[0], y[0]
        yield f"grid-d{d}", Dataset(x, y)
        yield f"gauss-d{d}", Dataset(rng.standard_normal((N, d)),
                                     rng.standard_normal(N))
        scale = np.where(rng.random(N) < 0.5, 1e-13, 1.0)
        yield f"tiny-d{d}", Dataset(rng.standard_normal((N, d)) * scale[:, None],
                                    rng.standard_normal(N) * scale)
    for s in ((1, 2, 3), (2, 3)):
        inst = partition_to_instance(PartitionInstance(s))
        yield f"partition-{len(s)}", inst.data


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_brute_equals_the_reference_loop(n, loss):
    # the lean loop must not drift from the per-mode routine it stands for
    rng = np.random.default_rng(10 * n + (loss is ABSOLUTE))
    for name, data in _brute_datasets(rng):
        got, want = brute_force_solve(data, n, loss), \
            _reference_brute(data, n, loss)
        assert np.float64(got.cost).tobytes() == \
            np.float64(want.cost).tobytes(), name
        assert got.models.w.tobytes() == want.models.w.tobytes(), name
        assert got.labeling.q.tolist() == want.labeling.q.tolist(), name
        assert got.labeling.tie_set == want.labeling.tie_set, name
        assert (got.status, got.candidates_examined) == \
            (want.status, want.candidates_examined), name


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


_PAST_THE_OLD_CAPS = [(4, 1, 7), (4, 2, 7), (2, 4, 9)]


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
@pytest.mark.parametrize("n, d, N", _PAST_THE_OLD_CAPS,
                         ids=[f"n{n}-d{d}" for n, d, _ in _PAST_THE_OLD_CAPS])
def test_enum_equals_brute_past_three_modes_or_dimensions(n, d, N, loss):
    # nothing in the geometry, the regions or the search depends on n or d,
    # so four modes or four regressor dimensions are solved exactly. The
    # generator needs N >= n d points; its instance is cut to the first N
    gen, _, _ = random_instance(0, n=n, d=d, N=max(N, n * d))
    rng = np.random.default_rng(N + 10 * d)
    grid = Dataset(rng.integers(-2, 3, size=(N, d)).astype(float),
                   rng.integers(-2, 3, size=N).astype(float))
    for data in (Dataset(gen.x[:N], gen.y[:N]), grid):
        enum = enumeration_solve(data, n, loss)
        brute = brute_force_solve(data, n, loss)
        assert enum.status == "optimal"
        assert abs(enum.cost - brute.cost) <= ZERO_TOL


@pytest.mark.parametrize("n, d, N", [(2, 4, 9), (4, 2, 10)], ids=["d4", "n4"])
def test_stream_refuses_budget_before_the_whole_product(n, d, N):
    # the budget is the only limit on d and n, and it holds while the pool is
    # built: the G x H product is deduped a budget's worth of rows at a time,
    # so the refusal comes within one block of the budget, long before the
    # whole product
    data, _, _ = random_instance(0, n=n, d=d, N=N)
    halves = [len(enumerate_linear_dichotomies(p)) // 2
              for p in (data.lifted(), data.x)]
    budget = len(CandidateStream(data, 2).pair_products) // 2
    assert 2 * budget < halves[0] * halves[1]
    with pytest.raises(CapsExceededError,
                       match=rf"^\d+ classifier combinations exceed the "
                             rf"budget {budget}$") as err:
        CandidateStream(data, n, SolverConfig(candidate_budget=budget))
    assert budget < int(str(err.value).split()[0]) <= 2 * budget


def test_two_mode_pool_built_in_blocks_is_the_same():
    # at a budget of P the G x H product takes several blocks, and the
    # deduped half pool and the partitions are the one-pass ones
    data, _, _ = random_instance(0, d=3, N=10)
    whole = CandidateStream(data, 2)
    P = len(whole.pair_products)
    halves = [len(enumerate_linear_dichotomies(p)) // 2
              for p in (data.lifted(), data.x)]
    assert halves[0] * halves[1] > 2 * P
    blocks = CandidateStream(data, 2, SolverConfig(candidate_budget=P))
    assert np.array_equal(blocks.pair_products, whole.pair_products)
    assert np.array_equal(blocks.partitions, whole.partitions)


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
                ZERO_TOL, (d, seed)


def _two_mode_edge_data(rng):
    """Grid data with a zero regressor and a repeated row, all-zero x, and
    a single point, live or dead."""
    cases = []
    for trial in range(12):
        d, N = 1 + trial % 3, 5 + trial % 4
        x = rng.integers(-2, 3, size=(N, d)).astype(float)
        y = rng.integers(-2, 3, size=N).astype(float)
        x[-1], y[-1] = x[0], y[0]
        x[trial % (N - 1)] = 0.0
        cases.append(Dataset(x, y))
    cases.append(Dataset(np.zeros((4, 2)), np.array([1.0, -2.0, 0.0, 3.0])))
    cases.append(Dataset(np.array([[1.5]]), np.array([2.0])))
    cases.append(Dataset(np.array([[0.0]]), np.array([2.0])))
    return cases


def test_two_mode_partitions_pair_each_half_row_with_its_complement():
    # at n = 2 the partitions are read off the pool: half row j, reversed,
    # with its live complement, region 2P - 1 - j; each region is used once
    # and the general search finds the same partitions in the same order
    for data in _two_mode_edge_data(np.random.default_rng(61)):
        stream = CandidateStream(data, 2)
        live = data.x.any(axis=1)
        assert np.array_equal(stream.partitions, solvers._partition_search(
            stream.regions, live, 2, SolverConfig()))
        if not live.any():
            assert stream.partitions.tolist() == [[0, 0]]
            continue
        half = stream.pair_products[::-1] & live
        first, rest = stream.regions[stream.partitions].transpose(1, 0, 2)
        assert np.array_equal(first, half)
        assert np.array_equal(rest, live & ~half)
        assert np.array_equal(np.sort(stream.partitions, axis=None),
                              np.arange(2 * len(half)))


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
def test_two_mode_enum_equals_brute_on_edge_data(loss):
    for data in _two_mode_edge_data(np.random.default_rng(62)):
        enum = enumeration_solve(data, 2, loss)
        brute = brute_force_solve(data, 2, loss)
        assert enum.status == "optimal"
        assert abs(enum.cost - brute.cost) <= ZERO_TOL


def test_near_collinear_squared_draws_enum_equals_brute():
    # draws of the near-collinear sweep. On 234, 283 and 1851 the batched
    # scorer and the re-fit once took different branches of a normal-
    # equation fit with a ridge, so enum dropped the optimal partition. On
    # 979 and 2540 that fit overstated the optimal modes' costs, in enum
    # and in brute alike. On 2060 the fits' |w| is near 1e9 and the
    # scorer's totals round by more than N * ZERO_TOL, so enum's re-fit
    # window widens by their rounding bound
    picked = (234, 283, 979, 1851, 2060, 2540)
    for i, (x, y) in enumerate(
            report_digest.near_collinear_draws(np, max(picked) + 1)):
        if i not in picked:
            continue
        data = Dataset(x, y)
        enum = enumeration_solve(data, 2, SQUARED)
        brute = brute_force_solve(data, 2, SQUARED)
        assert abs(enum.cost - brute.cost) <= ZERO_TOL, \
            (i, enum.cost, brute.cost)


def test_brute_squared_equals_literal_lstsq_brute():
    # brute's fits against lstsq on each mode's own points, computed in
    # conftest with no solvers code, on every third of 600 near-collinear
    # draws: with normal equations and a ridge, brute overstated the
    # optimum on 5 of them, by up to a factor of 1.7
    for i, (x, y) in enumerate(report_digest.near_collinear_draws(np, 600)):
        if i % 3 == 0:
            brute = brute_force_solve(Dataset(x, y), 2, SQUARED)
            oracle = lstsq_brute_cost(x, y, 2)
            assert abs(brute.cost - oracle) <= 1e-9, (i, brute.cost, oracle)


def test_table_refit_equals_mode_regression():
    # enum's absolute-loss re-fit reads each mode's pool off the solve's
    # table: bit for bit solve_mode_regression, on empty modes, modes below
    # d points and modes holding a repeated row
    rng = np.random.default_rng(71)
    seen = {"empty": 0, "small": 0, "repeated": 0}
    for trial in range(18):
        d, N, n = 1 + trial % 3, 6 + trial % 3, 2 + trial % 2
        x = rng.integers(-2, 3, size=(N, d)).astype(float)
        y = rng.integers(-2, 3, size=N).astype(float)
        x[-1], y[-1] = x[0], y[0]
        table = list(solvers._interpolants(x, y))
        labels = rng.integers(0, n, size=(12, N))
        labels[0] = 0                               # every other mode empty
        labels[1, :] = 1
        labels[1, :d - 1] = 0                       # mode 0 below d points
        for q0 in labels:
            masks = [q0 == j for j in range(n)]
            seen["empty"] += sum(not m.any() for m in masks)
            seen["small"] += sum(0 < m.sum() < d for m in masks)
            seen["repeated"] += q0[0] == q0[-1]
            want = [solve_mode_regression(x[m], y[m], ABSOLUTE) for m in masks]
            got = solvers._fit_array(solvers._mode_fit(x, y, ABSOLUTE, table),
                                     q0, n)
            assert np.array_equal(got, np.array(want)), (trial, q0)
    assert all(v > 0 for v in seen.values()), seen


def test_enum_absolute_builds_one_table_and_no_mode_pools(monkeypatch):
    # one interpolant table serves the region scorer and every re-fit mode
    built = []
    interpolants = solvers._interpolants

    def counted(x, y):
        built.append(len(y))
        return interpolants(x, y)

    def refuse(*args, **kwargs):
        raise AssertionError("re-fit computed a mode's own pool")
    data, _, _ = random_instance(3, d=2, N=8)
    monkeypatch.setattr(solvers, "_interpolants", counted)
    monkeypatch.setattr(solvers, "solve_mode_regression", refuse)
    report = enumeration_solve(data, 2, ABSOLUTE)
    assert built == [data.N]
    brute = brute_force_solve(data, 2, ABSOLUTE)
    assert abs(report.cost - brute.cost) <= ZERO_TOL


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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=["sq", "abs"])
def test_enum_computes_no_witness(monkeypatch, n, loss):
    # the stream reads the dichotomies' signs alone: no solve asks for the
    # witnesses, on generator data or on integer-grid data whose zero
    # regressors stay out of the geometry
    def refuse(*args):
        raise AssertionError("a solve computed dichotomy witnesses")
    monkeypatch.setattr(geometry, "_witnesses", refuse)
    grid = np.random.default_rng(n).integers(-2, 3, size=(8, 3)).astype(float)
    grid[[1, 4], :2] = 0.0
    for data in (random_instance(n, n=n, d=2, N=8)[0],
                 Dataset(grid[:, :2], grid[:, 2])):
        assert len(CandidateStream(data, n).partitions)
        assert enumeration_solve(data, n, loss).status == "optimal"


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
    assert abs(recomputed - report.cost) <= ZERO_TOL


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=["squared", "absolute"])
def test_enum_three_modes_in_the_plane_within_default_budget(loss):
    # n = 3, d = 2, N = 8 needs P**3 > 5e6 combinations, over the default
    # budget; the region search builds far fewer rows
    data, _, _ = random_instance(8, n=3, d=2, N=8)
    enum = enumeration_solve(data, 3, loss, SolverConfig())
    brute = brute_force_solve(data, 3, loss)
    assert enum.status == "optimal"
    assert enum.candidates_examined > SolverConfig().candidate_budget
    assert abs(enum.cost - brute.cost) <= ZERO_TOL


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=["squared", "absolute"])
def test_enum_three_modes_in_the_plane_at_twelve_points(loss):
    # the region pairs (P**2 < 1e6) and the search fit the default budget,
    # where the peel join built 3.1M completions; brute force takes 3^11
    # labelings, so a planted zero-cost fit and altmin are the references
    planted, _, _ = generate_instance(GeneratorSpec(n=3, d=2, N=12, seed=12))
    noisy, _, _ = random_instance(12, n=3, d=2, N=12)
    enum = enumeration_solve(planted, 3, loss)
    assert enum.status == "optimal"
    assert enum.cost <= ZERO_TOL
    enum = enumeration_solve(noisy, 3, loss)
    assert enum.status == "optimal"
    assert enum.cost <= altmin_solve(noisy, 3, loss).cost + \
        ZERO_TOL


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


def _squared_branch(x, y):
    """The branch the batched scorer takes on the points x, y: the normal
    equations where det(G / trace(G)) certifies cond(G) < _GRAM_COND, or
    _lstsq."""
    k, d = x.shape
    if k == 0:
        return "empty"
    gram = x.T @ x
    t = np.trace(gram)
    if k >= d and t > 0 and \
            np.linalg.det(gram / t) * solvers._GRAM_COND > 1:
        return "normal"
    return "lstsq"


def test_batched_scores_equal_per_candidate_fit():
    # each region's batched cost is the loss total of solve_mode_regression
    # on its points, on rank-deficient regions, regions below d points and
    # both branches of the squared scorer, the normal equations and
    # _lstsq, and empty regions, with no numpy warning (an error in this
    # suite), within 1e-9 or the row's rounding bound. The near-collinear
    # row is also scored under absolute loss: its best interpolant is
    # (6e7, -2e7), whose residuals the scorer and x @ w round 3.7e-9 apart,
    # inside its bound; the other two rows built for the squared scorer are
    # scored under squared loss only
    rng = np.random.default_rng(12)
    cases = []
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
        cases.append((x, y, rows, (SQUARED, ABSOLUTE)))
    for x, y, losses in [
        (np.array([[-2.0, -6.0], [-1.0, -3.0], [0.0, 1e-7]]),
         np.array([2.0, -2.0, -2.0]), (SQUARED, ABSOLUTE)),  # near collinear
        # the normal equations' w_1 = 1e309 overflows; lstsq's is finite
        (np.array([[1e-160, 0.0], [0.0, 1.0], [0.0, 2.0]]),
         np.array([1e149, 1.0, 2.5]), (SQUARED,)),
        (np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]),
         np.array([1.0, 0.0, 2.0]), (SQUARED,)),            # singular
    ]:
        cases.append((x, y, np.ones((1, len(y)), dtype=bool), losses))
    seen = dict.fromkeys(("empty", "small", "rank_deficient", "normal",
                          "lstsq"), 0)
    for x, y, rows, losses in cases:
        d = x.shape[1]
        for row in rows:
            k = row.sum()
            seen["small"] += 0 < k < d
            seen["rank_deficient"] += k >= d and \
                np.linalg.matrix_rank(x[row]) < d
            seen[_squared_branch(x[row], y[row])] += 1
        for loss in losses:
            costs, slack = solvers._region_costs(x, y, rows, loss,
                                                 solvers._table(x, y, loss))
            assert (slack >= 0).all()
            for row, cost, bound in zip(rows, costs, slack):
                w = solve_mode_regression(x[row], y[row], loss)
                exact = loss.residual_loss(y[row] - x[row] @ w).sum()
                assert abs(cost - exact) <= max(1e-9, bound), \
                    (loss, x, row, cost, exact, bound)
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
        assert abs(enum.cost - brute.cost) <= ZERO_TOL, \
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
    assert abs(report.cost - brute.cost) <= ZERO_TOL


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
@pytest.mark.parametrize("x_scale, y_scale", [(1e-10, 1.0), (1.0, 1e10),
                                              (1e-10, 1e10), (1e-13, 1.0)],
                         ids=["tiny-x", "huge-y", "both", "tinier-x"])
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
                              atol=ZERO_TOL)


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
    assert abs(enum.cost - brute.cost) <= ZERO_TOL


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


def test_noiseless_without_an_interpolating_subset():
    # a zero regressor interpolates no nonzero target, so no 1-subset keeps
    # its own point and the solver reports its zero models
    data = Dataset(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]))
    report = noiseless_solve(data, 2)
    assert report.status == "infeasible"
    assert np.array_equal(report.models.w, np.zeros((2, 1)))
    assert report.cost == pytest.approx(14 / 3)
    assert report.candidates_examined == 3


def test_noiseless_respects_budget():
    data, _, _ = random_instance(8, d=2, N=30, sigma=0.0)
    with pytest.raises(CapsExceededError,
                       match="435 interpolation subsets exceed the budget 10$"):
        noiseless_solve(data, 2, SolverConfig(candidate_budget=10))


def test_noiseless_cover_search_respects_budget():
    # 13 grid points on 6 x 6 with no 4-line cover: the search visits 1,513
    # nodes to prove it, far more than the C(13, 2) = 78 subsets
    rng = np.random.default_rng(2)
    data = Dataset(np.column_stack([rng.integers(0, 6, 13), np.ones(13)]),
                   rng.integers(0, 6, 13).astype(float))
    assert noiseless_solve(data, 4, SolverConfig(
        candidate_budget=1513)).status == "infeasible"
    for budget in (100, 1512):
        with pytest.raises(CapsExceededError,
                           match=f"^{budget + 1} cover search nodes exceed "
                                 f"the budget {budget}$"):
            noiseless_solve(data, 4, SolverConfig(candidate_budget=budget))


# ---------------------------------------------------------------------------
# alternating minimization


def test_altmin_recovers_noiseless_instance(noiseless_four_points):
    data, _, _ = noiseless_four_points
    report = altmin_solve(data, 2, SQUARED, SolverConfig(restarts=20))
    assert report.cost <= 1e-20
    assert report.status == "heuristic"
    assert report.candidates_examined == 20


def test_altmin_same_seed_identical_reports():
    data, _, _ = random_instance(9, N=9)
    cfg = SolverConfig(seed=42)
    a = altmin_solve(data, 2, SQUARED, cfg)
    b = altmin_solve(data, 2, SQUARED, cfg)
    assert a.cost == b.cost
    assert a.labeling.q.tolist() == b.labeling.q.tolist()
    assert np.array_equal(a.models.w, b.models.w)


def test_altmin_local_minimum_stays_above_exact_cost():
    # this seed is known to strand a single restart in a local minimum
    data, _, _ = generate_instance(
        GeneratorSpec(n=2, d=1, N=8, noise_sigma=0.1, seed=4))
    exact = enumeration_solve(data, 2, SQUARED)
    stuck = altmin_solve(data, 2, SQUARED, SolverConfig(restarts=1))
    assert stuck.cost > exact.cost + 1e-6
    assert stuck.cost >= exact.cost - 1e-9


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
def test_altmin_gaussian_start_below_n_d_points(loss):
    # N = 5 < n d = 6 leaves no n disjoint d-subsets to interpolate, so
    # every restart starts from Gaussian parameters
    data, _, _ = generate_instance(
        GeneratorSpec(n=2, d=2, N=5, noise_sigma=0.1, seed=0))
    cfg = SolverConfig(seed=3)
    a = altmin_solve(data, 3, loss, cfg)
    b = altmin_solve(data, 3, loss, cfg)
    assert (a.cost, a.labeling, a.candidates_examined) \
        == (b.cost, b.labeling, b.candidates_examined)
    assert np.array_equal(a.models.w, b.models.w)
    brute = brute_force_solve(data, 3, loss)
    assert a.cost >= brute.cost - ZERO_TOL
    _assert_report_contract(data, a, 3, loss)


# ---------------------------------------------------------------------------
# dispatcher and report type


def test_solve_instance_dispatch(noiseless_four_points, monkeypatch):
    data, _, _ = noiseless_four_points
    for method in solvers.SOLVER_METHODS:
        report = solve_instance(data, 2, SQUARED, method)
        assert report.method == method
        assert report.cost <= 1e-12
        for n in (0, -1):
            with pytest.raises(ValueError, match="need n >= 1"):
                solve_instance(data, n, SQUARED, method)
    with pytest.raises(ValueError):
        solve_instance(data, 2, SQUARED, "simplex")

    # a non-default config acts the same through either entry point
    cfg = SolverConfig(restarts=3, seed=5)
    for report in (solve_instance(data, 2, SQUARED, "altmin", cfg),
                   altmin_solve(data, 2, SQUARED, cfg)):
        assert report.candidates_examined == 3
    small = SolverConfig(candidate_budget=8)
    with pytest.raises(CapsExceededError):
        solve_instance(data, 2, SQUARED, "brute", small)
    with pytest.raises(CapsExceededError):
        brute_force_solve(data, 2, SQUARED, small)

    # each solver is looked up on the module at call time, so a replaced
    # attribute (as the benchmark's tracer installs) is the one called
    for method, name in zip(solvers.SOLVER_METHODS,
                            ("brute_force", "enumeration", "noiseless",
                             "altmin")):
        monkeypatch.setattr(solvers, f"{name}_solve",
                            lambda *args, name=name: (name, args[-1]))
        assert solve_instance(data, 2, SQUARED, method, cfg) == (name, cfg)


# one instance per mode count; noiseless scores squared loss only
_CONTRACT_CASES = [(method, n, loss) for method in solvers.SOLVER_METHODS
                   for n in (2, 3)
                   for loss in ((SQUARED,) if method == "noiseless"
                                else (SQUARED, ABSOLUTE))]


@pytest.mark.parametrize("method,n,loss", _CONTRACT_CASES)
def test_every_solver_keeps_the_report_contract(method, n, loss):
    data = random_instance(4, n=n, d=2 if n == 2 else 1, N=8 if n == 2 else 7)[0]
    _assert_report_contract(data, solve_instance(data, n, loss, method), n,
                            loss)


def _assert_report_contract(data, report, n, loss):
    assert report.cost == empirical_cost(data, report.models, report.labeling,
                                         loss)
    assert canonicalize_labels(report.labeling, n).q.tolist() \
        == report.labeling.q.tolist()
    assert report.labeling.tie_set == assign_modes(data, report.models,
                                                   loss).tie_set


def test_report_status_validated():
    with pytest.raises(ValueError):
        SolveReport(method="enum", cost=0.0,
                    models=ModelSet(np.array([[1.0]])),
                    labeling=Labeling(np.array([1])),
                    candidates_examined=1, elapsed=0.0, status="done")


def test_solver_config_validation():
    # the floats, bools and negative seed used to pass the constructor and
    # fail later, inside a solver or numpy, or refuse with "exceed the
    # budget True"
    for field, value in [
            ("restarts", 0), ("restarts", 2.5), ("restarts", True),
            ("seed", -1), ("seed", 1.0), ("seed", False),
            ("candidate_budget", 0), ("candidate_budget", 1000.5),
            ("candidate_budget", True), ("candidate_budget", "1000")]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SolverConfig(**{field: value})
        SolverConfig(**{field: 1})
    SolverConfig(seed=0)
