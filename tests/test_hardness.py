"""The equal-sum-split reduction: construction, decision, extraction."""

import itertools

import numpy as np
import pytest

from switchreg import (ABSOLUTE, CertificateError, DecisionInstance,
                       Dataset, ModelSet, PartitionInstance, SQUARED,
                       ZERO_TOL, decide_threshold, extract_partition,
                       partition_to_instance, solve_instance)

from conftest import partition_has_equal_split


# ---------------------------------------------------------------------------
# Construction


def test_instance_three_entries():
    inst = partition_to_instance(PartitionInstance((1, 2, 3)))
    assert inst.n == 2 and inst.epsilon == 0.0
    assert inst.data.N == 7 and inst.data.d == 3
    expected_x = [[1, 0, 0], [0, 2, 0], [0, 0, 3],
                  [1, 0, 0], [0, 2, 0], [0, 0, 3],
                  [1, 2, 3]]
    expected_y = [1, 2, 3, 0, 0, 0, 3]
    assert inst.data.x.tolist() == [[float(v) for v in row] for row in expected_x]
    assert inst.data.y.tolist() == [float(v) for v in expected_y]


def test_instance_single_entry():
    inst = partition_to_instance(PartitionInstance((1,)))
    assert inst.data.x.tolist() == [[1.0], [1.0], [1.0]]
    assert inst.data.y.tolist() == [1.0, 0.0, 0.5]


def test_instance_half_sum_point():
    inst = partition_to_instance(PartitionInstance((2, 2)))
    assert inst.data.x[-1].tolist() == [2.0, 2.0]
    assert inst.data.y[-1] == 2.0


def test_multiset_rejects_non_positive_entries():
    with pytest.raises(ValueError):
        PartitionInstance((1, 0, 3))
    with pytest.raises(ValueError):
        PartitionInstance((-2,))
    with pytest.raises(ValueError):
        PartitionInstance(())


def test_multiset_refuses_a_non_integer_entry():
    # int() would truncate these and decide another multiset
    for s in ((1.5, 2), (np.float64(3.9), 2), (2.0, 2)):
        with pytest.raises(ValueError, match="must be positive integers"):
            PartitionInstance(s)


def test_multiset_refuses_a_boolean_entry():
    for s in ((True, 1), (np.True_, 1)):
        with pytest.raises(ValueError, match="must be positive integers"):
            PartitionInstance(s)


def test_multiset_refuses_a_sum_past_the_float_range():
    # the reduction's points are floats; 10^400 has none
    for s in ((10 ** 400, 1), (10 ** 308, 10 ** 308)):
        with pytest.raises(ValueError, match="sum exceeds the largest float"):
            PartitionInstance(s)
    # numpy integers are integers, and an entry near the range passes
    p = PartitionInstance(tuple(np.array([3, 1, 2, 2], dtype=np.int64)))
    assert p.s == (3, 1, 2, 2) and all(type(v) is int for v in p.s)
    assert partition_to_instance(PartitionInstance((10 ** 300, 1))).data.N == 5


def test_decision_instance_validation():
    data = Dataset(np.ones((3, 2)), np.ones(3))
    with pytest.raises(ValueError):
        DecisionInstance(data=data, n=1, epsilon=0.0)
    with pytest.raises(ValueError):
        DecisionInstance(data=data, n=2, epsilon=-1.0)
    with pytest.raises(ValueError):
        DecisionInstance(data=data, n=2, epsilon=0.0)  # n*d > N
    four = Dataset(np.ones((4, 2)), np.ones(4))
    for epsilon in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError,
                           match="^epsilon must be a finite nonnegative real$"):
            DecisionInstance(data=four, n=2, epsilon=epsilon)


# ---------------------------------------------------------------------------
# Decision


def test_decide_yes_with_indicator_witness():
    inst = partition_to_instance(PartitionInstance((1, 2, 3)))
    decision = decide_threshold(inst, method="brute")
    assert decision.answer
    rows = {tuple(np.round(r).astype(int)) for r in decision.models.w}
    assert rows == {(1, 1, 0), (0, 0, 1)}


def test_decide_no_for_odd_total():
    inst = partition_to_instance(PartitionInstance((1, 1, 1)))
    decision = decide_threshold(inst, method="brute")
    assert not decision.answer
    assert decision.cost > ZERO_TOL


def test_decide_huge_threshold_trivially_yes():
    data = Dataset(np.arange(1, 7, dtype=float)[:, None],
                   np.random.default_rng(0).standard_normal(6))
    inst = DecisionInstance(data=data, n=2, epsilon=1e9)
    assert decide_threshold(inst, method="brute").answer


def test_decide_rejects_heuristic_method():
    inst = partition_to_instance(PartitionInstance((1, 2)))
    with pytest.raises(ValueError):
        decide_threshold(inst, method="altmin")


def test_decide_noiseless_only_at_zero_threshold():
    inst = partition_to_instance(PartitionInstance((1, 2, 3)))
    assert decide_threshold(inst, method="noiseless").answer
    positive = DecisionInstance(data=inst.data, n=2, epsilon=0.5)
    with pytest.raises(ValueError):
        decide_threshold(positive, method="noiseless")
    with pytest.raises(ValueError):
        decide_threshold(inst, method="dynamic")


def test_decide_answers_cost_within_epsilon_plus_zero_tol():
    # nudging the half-sum point costs a little above ZERO_TOL: no at
    # epsilon 0, yes once epsilon covers that cost
    inst = partition_to_instance(PartitionInstance((1, 2, 3)))
    y = inst.data.y.copy()
    y[-1] += 1e-3
    data = Dataset(inst.data.x, y)
    tight = decide_threshold(DecisionInstance(data=data, n=2, epsilon=0.0))
    loose = decide_threshold(DecisionInstance(data=data, n=2, epsilon=1e-3))
    assert not tight.answer
    assert loose.answer
    assert tight.cost == loose.cost
    assert ZERO_TOL < loose.cost <= 1e-3


@pytest.mark.parametrize("method", ["brute", "enum", "noiseless"])
def test_decision_report_is_the_solve_report(method):
    inst = partition_to_instance(PartitionInstance((1, 2, 3)))

    def fields(r):
        return (r.method, r.cost, r.labeling.q.tolist(), r.labeling.tie_set,
                r.models.w.tolist(), r.candidates_examined, r.status,
                r.warnings)

    assert fields(decide_threshold(inst, method=method).report) \
        == fields(solve_instance(inst.data, inst.n, SQUARED, method))


def test_decide_works_under_absolute_loss():
    yes = partition_to_instance(PartitionInstance((2, 4, 6)))
    no = partition_to_instance(PartitionInstance((1, 1, 1)))
    assert decide_threshold(yes, loss=ABSOLUTE, method="brute").answer
    assert not decide_threshold(no, loss=ABSOLUTE, method="brute").answer


# ---------------------------------------------------------------------------
# Extraction


def test_extract_first_indicator():
    models = ModelSet(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    p = PartitionInstance((1, 2, 3))
    assert extract_partition(models, p) == [1, 2]


def test_extract_complementary_indicator():
    models = ModelSet(np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    p = PartitionInstance((1, 2, 3))
    subset = extract_partition(models, p)
    assert subset == [3]
    assert 2 * sum(subset) == p.total


def test_extract_rejects_non_indicator():
    models = ModelSet(np.full((2, 3), 0.5))
    with pytest.raises(CertificateError):
        extract_partition(models, PartitionInstance((1, 2, 3)))


def test_extract_rejects_unbalanced_indicator():
    models = ModelSet(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(CertificateError):
        extract_partition(models, PartitionInstance((1, 2, 3)))


def test_extract_dimension_mismatch():
    models = ModelSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(CertificateError):
        extract_partition(models, PartitionInstance((1, 2, 3)))


# ---------------------------------------------------------------------------
# Properties


def test_reduction_agrees_with_subset_scan_small():
    # exhaustive small multisets; the full grid runs in the acceptance suite
    for s in itertools.combinations_with_replacement(range(1, 5), 2):
        inst = partition_to_instance(PartitionInstance(s))
        got = decide_threshold(inst, method="brute").answer
        assert got == partition_has_equal_split(s), s


def test_yes_certificates_fit_every_point_exactly():
    for s in [(1, 2, 3), (2, 2), (3, 1, 2, 2), (5, 5)]:
        inst = partition_to_instance(PartitionInstance(s))
        decision = decide_threshold(inst, method="brute")
        assert decision.answer
        r1 = np.abs(inst.data.y - inst.data.x @ decision.models.w[0])
        r2 = np.abs(inst.data.y - inst.data.x @ decision.models.w[1])
        assert np.all(np.minimum(r1, r2) <= ZERO_TOL)


def test_certificates_extract_balanced_subsets():
    for s in [(1, 2, 3), (2, 2), (3, 1, 2, 2), (6, 2, 4)]:
        p = PartitionInstance(s)
        decision = decide_threshold(partition_to_instance(p), method="brute")
        assert decision.answer
        try:
            subset = extract_partition(decision.models, p)
        except CertificateError:
            swapped = ModelSet(decision.models.w[::-1].copy())
            subset = extract_partition(swapped, p)
        assert 2 * sum(subset) == p.total


def test_small_threshold_slack_never_flips_no():
    slack = 10 * ZERO_TOL
    for s in [(1, 1, 1), (1, 2), (3, 3, 1), (5,), (2, 2, 3)]:
        assert not partition_has_equal_split(s)
        base = partition_to_instance(PartitionInstance(s))
        inst = DecisionInstance(data=base.data, n=2, epsilon=slack)
        assert not decide_threshold(inst, method="brute").answer
