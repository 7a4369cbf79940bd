"""Core types, losses, cost, assignment, and the pairwise vote machinery."""

import itertools

import numpy as np
import pytest

import switchreg
from switchreg import (ABSOLUTE, Dataset, Labeling, LossModel, ModelSet,
                       SIGN_TOL, SQUARED, ZERO_TOL, assign_modes,
                       canonicalize_labels, empirical_cost,
                       majority_vote_label, pairwise_classifiers_from_models)
from switchreg.core import (PairwiseClassifier, _assign_arrays,
                            _canonicalize_arrays, _cost_arrays)

from conftest import min_cost_over_all_labelings, random_instance


# ---------------------------------------------------------------------------
# Losses


def test_loss_eval_squared_at_zero():
    assert SQUARED.residual_loss(0.0) == 0.0


def test_loss_eval_squared_symmetric():
    assert SQUARED.residual_loss(-2.0) == 4.0
    assert SQUARED.residual_loss(-2.0) == SQUARED.residual_loss(2.0)


def test_loss_eval_absolute():
    assert ABSOLUTE.residual_loss(3.0) == 3.0
    assert ABSOLUTE.residual_loss(0.0) == 0.0


def test_loss_eval_rejects_non_finite():
    with pytest.raises(ValueError):
        SQUARED.residual_loss(np.inf)
    with pytest.raises(ValueError):
        ABSOLUTE.residual_loss(np.nan)


def test_get_loss_names():
    assert LossModel("squared") == SQUARED
    assert LossModel("absolute") == ABSOLUTE
    with pytest.raises(ValueError, match="unknown loss 'huber' \\(expected"):
        LossModel("huber")


def test_removed_public_names_stay_gone():
    # README's "Removed public names" says what replaces each
    modules = [switchreg] + [getattr(switchreg, name) for name in (
        "core", "geometry", "solvers", "hardness", "datasets", "bench")]
    for name in ("TIE_TOL", "get_loss", "loss_eval", "Tolerances",
                 "DEFAULT_TOLERANCES", "Dichotomy",
                 "enumerate_candidate_labelings"):
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)


def test_loss_axioms_on_sampled_pairs():
    # zero at zero, symmetry, and strict monotonicity in |e|
    rng = np.random.default_rng(0)
    e = rng.standard_normal(10_000) * 10
    e2 = rng.standard_normal(10_000) * 10
    for loss in (SQUARED, ABSOLUTE):
        assert loss.residual_loss(0.0) == 0.0
        for a, b in zip(e, e2):
            la, lb = loss.residual_loss(a), loss.residual_loss(b)
            assert la == loss.residual_loss(-a)
            assert (la < lb) == (abs(a) < abs(b))
            assert la >= 0.0


# ---------------------------------------------------------------------------
# empirical_cost


def test_cost_single_point_exact_fit():
    data = Dataset(np.array([[1.0]]), np.array([2.0]))
    assert empirical_cost(data, ModelSet(np.array([[2.0]])),
                          Labeling(np.array([1])), SQUARED) == 0.0


def test_cost_single_point_two_models():
    data = Dataset(np.array([[1.0]]), np.array([2.0]))
    models = ModelSet(np.array([[1.0], [2.0]]))
    assert empirical_cost(data, models, Labeling(np.array([1])), SQUARED) == 1.0
    assert empirical_cost(data, models, Labeling(np.array([2])), SQUARED) == 0.0


def test_cost_four_point_noiseless(noiseless_four_points):
    data, models, labeling = noiseless_four_points
    assert empirical_cost(data, models, labeling, SQUARED) == 0.0


def test_cost_rejects_mismatches():
    data = Dataset(np.array([[1.0]]), np.array([2.0]))
    with pytest.raises(ValueError):
        empirical_cost(data, ModelSet(np.array([[1.0, 1.0]])),
                       Labeling(np.array([1])), SQUARED)
    with pytest.raises(ValueError):
        empirical_cost(data, ModelSet(np.array([[1.0]])),
                       Labeling(np.array([2])), SQUARED)
    with pytest.raises(ValueError):
        empirical_cost(data, ModelSet(np.array([[1.0]])),
                       Labeling(np.array([1, 1])), SQUARED)


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
def test_cost_arrays_is_the_mean_of_the_residual_losses(loss):
    # bit for bit, on sizes either side of numpy's pairwise-summation
    # blocks (8 unrolled, 128 per leaf), for a stack of K labelings under
    # their own models costed in one call and for each labeling alone,
    # which empirical_cost costs as a stack of one
    rng = np.random.default_rng(31)
    for trial in range(200):
        N, d, n = int(rng.integers(1, 300)), int(rng.integers(1, 12)), 3
        K = int(rng.integers(1, 9))
        x = rng.standard_normal((N, d)) * 10.0 ** rng.integers(-8, 9)
        y = rng.standard_normal(N) * 10.0 ** rng.integers(-8, 9)
        w = rng.standard_normal((K, n, d))
        q0 = rng.integers(0, n, size=(K, N))
        stacked = _cost_arrays(x, y, w, q0, loss)
        assert stacked.shape == (K,), trial
        for k in range(K):
            r = y - np.einsum("ij,ij->i", x, w[k][q0[k]])
            want = float(np.mean(loss.residual_loss(r)))
            got = empirical_cost(Dataset(x, y), ModelSet(w[k]),
                                 Labeling(q0[k] + 1), loss)
            assert type(got) is float, trial
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), trial
            assert stacked[k].tobytes() == np.float64(want).tobytes(), \
                (trial, k)


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
def test_stacked_assignment_rows_are_their_own_calls(loss):
    # a (K, n, d) stack of model sets assigned in one call: each row's
    # labels and tie mask bit for bit its own call's, on sizes either side
    # of numpy's blocks; integer data and repeated modes make ties
    rng = np.random.default_rng(32)
    tied = 0
    for trial in range(200):
        N, d = int(rng.integers(1, 300)), int(rng.integers(1, 12))
        n, K = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        if trial % 2:
            x = rng.integers(-2, 3, size=(N, d)).astype(float)
            y = rng.integers(-2, 3, size=N).astype(float)
            w = rng.integers(-1, 2, size=(K, n, d)).astype(float)
        else:
            x = rng.standard_normal((N, d)) * 10.0 ** rng.integers(-8, 9)
            y = rng.standard_normal(N) * 10.0 ** rng.integers(-8, 9)
            w = rng.standard_normal((K, n, d))
            w[:, -1] = w[:, 0]
        q0, ties = _assign_arrays(x, y, w, loss)
        assert q0.shape == ties.shape == (K, N), trial
        for k in range(K):
            want_q0, want_ties = _assign_arrays(x, y, w[k], loss)
            assert q0[k].tobytes() == want_q0.tobytes(), (trial, k)
            assert ties[k].tobytes() == want_ties.tobytes(), (trial, k)
            tied += int(want_ties.sum())
    assert tied


def test_cost_of_an_overflowing_residual_is_refused():
    data = Dataset(np.array([[10.0], [1.0]]), np.array([1.0, 2.0]))
    for loss in (SQUARED, ABSOLUTE):
        with pytest.raises(ValueError, match="residuals must be finite"):
            empirical_cost(data, ModelSet(np.array([[1e308]])),
                           Labeling(np.array([1, 1])), loss)


# ---------------------------------------------------------------------------
# assign_modes


def test_assign_dominant_fit():
    data = Dataset(np.array([[2.0]]), np.array([1.9]))
    lab = assign_modes(data, ModelSet(np.array([[1.0], [-1.0]])), SQUARED)
    assert lab.q.tolist() == [1]
    assert lab.tie_set == ()


def test_assign_symmetric_tie_takes_smallest_index():
    data = Dataset(np.array([[1.0]]), np.array([0.0]))
    lab = assign_modes(data, ModelSet(np.array([[1.0], [-1.0]])), SQUARED)
    assert lab.q.tolist() == [1]
    assert lab.tie_set == (1,)


def test_assign_three_modes_direct_comparison():
    data = Dataset(np.array([[1.0]]), np.array([1.7]))
    lab = assign_modes(data, ModelSet(np.array([[2.0], [0.0], [-2.0]])), SQUARED)
    assert lab.q.tolist() == [1]


def test_assign_dimension_mismatch():
    data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        assign_modes(data, ModelSet(np.array([[1.0]])), SQUARED)


@pytest.mark.parametrize("loss_name", ["squared", "absolute"])
def test_assign_minimizes_over_all_labelings(loss_name):
    # the per-point argmin rule must match literal enumeration of labelings
    loss = LossModel(loss_name)
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3))
        N = int(rng.integers(2, 9))
        data = Dataset(rng.standard_normal((N, d)), rng.standard_normal(N))
        models = ModelSet(rng.standard_normal((n, d)))
        assigned = assign_modes(data, models, loss)
        c_assigned = empirical_cost(data, models, assigned, loss)
        c_best = min_cost_over_all_labelings(data, models, loss)
        assert c_assigned <= c_best + ZERO_TOL


# ---------------------------------------------------------------------------
# Pairwise classifiers and the vote


def test_classifier_midpoint_difference_vectors():
    cs = pairwise_classifiers_from_models(ModelSet(np.array([[2.0], [0.0]])))
    assert len(cs) == 1
    assert cs[0].w_bar.tolist() == [1.0]
    assert cs[0].w_tilde.tolist() == [2.0]


def test_classifier_pairs_for_three_modes():
    cs = pairwise_classifiers_from_models(ModelSet(np.zeros((3, 2))))
    assert [(c.j, c.k) for c in cs] == [(1, 2), (1, 3), (2, 3)]


def test_classifier_requires_two_modes():
    with pytest.raises(ValueError):
        pairwise_classifiers_from_models(ModelSet(np.array([[1.0]])))


def test_degenerate_classifier_reports_all_tied():
    # identical modes put every point on the boundary
    w = np.array([[1.0, -2.0], [1.0, -2.0]])
    cs = pairwise_classifiers_from_models(ModelSet(w))
    assert cs[0].w_tilde.tolist() == [0.0, 0.0]
    label, tied = majority_vote_label(np.array([3.0, 1.0]), 5.0, cs)
    assert tied == (1, 2)


def test_vote_positive_product_picks_first_mode():
    cs = pairwise_classifiers_from_models(ModelSet(np.array([[2.0], [0.0]])))
    g, h = cs[0].factors(np.array([1.0]), 1.5)
    assert g == 0.5 and h == 2.0
    label, tied = majority_vote_label(np.array([1.0]), 1.5, cs)
    assert label == 1 and tied == (1,)
    data = Dataset(np.array([[1.0]]), np.array([1.5]))
    assert assign_modes(data, ModelSet(np.array([[2.0], [0.0]])),
                        SQUARED).q.tolist() == [label]


def test_vote_three_modes_score_two_one_zero():
    models = ModelSet(np.array([[2.0], [0.0], [-2.0]]))
    cs = pairwise_classifiers_from_models(models)
    votes = [c.vote(np.array([1.0]), 1.7) for c in cs]
    assert votes == [1, 1, 1]        # scores S = (2, 1, 0)
    label, tied = majority_vote_label(np.array([1.0]), 1.7, cs)
    assert label == 1 and tied == (1,)
    data = Dataset(np.array([[1.0]]), np.array([1.7]))
    assert assign_modes(data, models, SQUARED).q.tolist() == [1]


def test_vote_boundary_reports_tied_pair():
    cs = pairwise_classifiers_from_models(ModelSet(np.array([[1.0], [-1.0]])))
    label, tied = majority_vote_label(np.array([1.0]), 0.0, cs)
    assert set(tied) == {1, 2}


def test_vote_requires_complete_classifier_set():
    cs = pairwise_classifiers_from_models(ModelSet(np.zeros((3, 1))))
    with pytest.raises(ValueError):
        majority_vote_label(np.array([1.0]), 0.5, cs[:2])
    with pytest.raises(ValueError):
        majority_vote_label(np.array([1.0]), 0.5, [])


def test_vote_antisymmetry_under_role_swap():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 200:
        wa, wb = rng.standard_normal((2, 3))
        x = rng.standard_normal(3)
        y = float(rng.standard_normal())
        fwd = pairwise_classifiers_from_models(ModelSet(np.array([wa, wb])))[0]
        rev = pairwise_classifiers_from_models(ModelSet(np.array([wb, wa])))[0]
        if fwd.vote(x, y) == 0:
            continue
        assert fwd.vote(x, y) == -rev.vote(x, y)
        checked += 1


def test_vote_agrees_with_assignment_off_boundary():
    # smaller copy of the full agreement sweep in the acceptance suite
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        models = ModelSet(rng.standard_normal((n, d)))
        x = rng.standard_normal(d)
        y = float(rng.standard_normal())
        cs = pairwise_classifiers_from_models(models)
        if any(abs(f) <= SIGN_TOL for c in cs for f in c.factors(x, y)):
            continue
        label, tied = majority_vote_label(x, y, cs)
        data = Dataset(x[None, :], np.array([y]))
        assert tied == (label,)
        assert label == int(assign_modes(data, models, SQUARED).q[0])
        checked += 1


def test_classifier_validates_pair_order():
    with pytest.raises(ValueError):
        PairwiseClassifier(j=2, k=1, w_bar=np.zeros(1), w_tilde=np.zeros(1))


# ---------------------------------------------------------------------------
# Canonicalization


def test_canonicalize_first_occurrence():
    assert canonicalize_labels(Labeling(np.array([2, 2, 1])), 2).q.tolist() \
        == [1, 1, 2]


def test_canonicalize_identity():
    assert canonicalize_labels(Labeling(np.array([1, 2, 3])), 3).q.tolist() \
        == [1, 2, 3]


def test_canonicalize_refuses_a_label_past_n():
    with pytest.raises(ValueError, match="^label exceeds n=2$"):
        canonicalize_labels(Labeling(np.array([1, 3])), 2)


def test_canonicalize_single_mode_used():
    assert canonicalize_labels(Labeling(np.array([3, 3, 3])), 3).q.tolist() \
        == [1, 1, 1]


def test_canonicalize_idempotent_and_cost_preserving():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n, d, N = 3, 2, 7
        data = Dataset(rng.standard_normal((N, d)), rng.standard_normal(N))
        models = ModelSet(rng.standard_normal((n, d)))
        q = rng.integers(1, n + 1, size=N)
        lab = Labeling(q)
        canon = canonicalize_labels(lab, n)
        again = canonicalize_labels(canon, n)
        assert canon.q.tolist() == again.q.tolist()
        # permute model rows to follow the relabeling: costs must agree
        perm = {}
        for old, new in zip(q, canon.q):
            perm[int(new)] = int(old)
        w_perm = np.array([models.w[perm[j] - 1] if j in perm else models.w[j - 1]
                           for j in range(1, n + 1)])
        c0 = empirical_cost(data, models, lab, SQUARED)
        c1 = empirical_cost(data, ModelSet(w_perm), canon, SQUARED)
        assert abs(c0 - c1) <= ZERO_TOL


def test_canonicalize_preserves_tie_set():
    lab = Labeling(np.array([2, 1, 2]), tie_set=[1, 3])
    assert canonicalize_labels(lab, 2).tie_set == (1, 3)


def test_canonicalize_arrays_permutes_model_rows():
    # used modes in first-occurrence order, then the unused ones by index
    w = np.arange(4.0)[:, None]
    q_new, w_new = _canonicalize_arrays(np.array([2, 0, 2]), w)
    assert q_new.tolist() == [0, 1, 0]
    assert w_new.ravel().tolist() == [2.0, 0.0, 1.0, 3.0]
    # a (C, N) array is canonicalized row by row
    rows = np.random.default_rng(5).integers(0, 4, size=(30, 6))
    rows[0] = 3
    batch = _canonicalize_arrays(rows)
    assert batch.tolist() == [_canonicalize_arrays(r).tolist() for r in rows]
    for row, got in zip(rows, batch):
        remap = {}
        assert got.tolist() == [remap.setdefault(v, len(remap))
                                for v in row.tolist()]
    # and with a (C, n, d) stack of models, each row's models permute with it
    ws = np.random.default_rng(6).standard_normal((30, 4, 2))
    q_batch, w_batch = _canonicalize_arrays(rows, ws)
    for row, w, got_q, got_w in zip(rows, ws, q_batch, w_batch):
        want_q, want_w = _canonicalize_arrays(row, w)
        assert got_q.tolist() == want_q.tolist()
        assert got_w.tobytes() == want_w.tobytes()


# ---------------------------------------------------------------------------
# Type validation


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0]]), np.array([np.nan]))
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 1)), np.empty(0))
    with pytest.raises(ValueError,
                       match=r"^x must be 2-d \(N, d\), got shape \(3,\)$"):
        Dataset(np.ones(3), np.ones(3))
    with pytest.raises(ValueError,
                       match=r"^y must be 1-d \(N,\), got shape \(3, 1\)$"):
        Dataset(np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError, match="^x has 3 rows but y has 2$"):
        Dataset(np.ones((3, 1)), np.ones(2))
    with pytest.raises(ValueError,
                       match="^dataset needs at least one regressor dimension$"):
        Dataset(np.ones((3, 0)), np.ones(3))


def test_dataset_lifted_points():
    data = Dataset(np.array([[1.0, 2.0]]), np.array([3.0]))
    assert data.lifted().tolist() == [[1.0, 2.0, 3.0]]


def test_labeling_validation():
    with pytest.raises(ValueError):
        Labeling(np.array([0, 1]))
    with pytest.raises(ValueError):
        Labeling(np.array([1, 2]), tie_set=[1, 1])
    with pytest.raises(ValueError):
        Labeling(np.array([1, 2]), tie_set=[3])
    with pytest.raises(ValueError, match=r"^q must be 1-d, got shape \(2, 1\)$"):
        Labeling(np.ones((2, 1)))
    with pytest.raises(ValueError, match="^labeling needs at least one point$"):
        Labeling(np.array([], dtype=np.int64))


def test_modelset_validation():
    with pytest.raises(ValueError):
        ModelSet(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        ModelSet(np.empty((0, 2)))
    with pytest.raises(ValueError,
                       match=r"^w must be 2-d \(n, d\), got shape \(2,\)$"):
        ModelSet(np.ones(2))
