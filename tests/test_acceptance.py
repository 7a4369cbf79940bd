"""Acceptance suite: ten end-to-end checks, one test per criterion.

Run with -v to get one pass/fail line per criterion. Each test prints its
measured numbers, which pytest shows on failure.
"""

import itertools
import time
from math import comb

import numpy as np
import pytest

from switchreg import (ABSOLUTE, DEFAULT_TOLERANCES, Dataset, GeneratorSpec,
                       Labeling, ModelSet, PartitionInstance, SIGN_TOL,
                       SQUARED, SolverConfig,
                       altmin_solve, assign_modes, bench_scaling,
                       brute_force_solve, check_general_position,
                       decide_threshold, enumerate_linear_dichotomies,
                       enumeration_solve, extract_partition, generate_instance,
                       label_accuracy, majority_vote_label, noiseless_solve,
                       pairwise_classifiers_from_models, partition_to_instance,
                       refine_alternate, sweep_dichotomies_oracle)
from switchreg.hardness import CertificateError

from conftest import partition_has_equal_split

SMALL_COMBOS = [(d, N) for d in (1, 2) for N in range(5, 11)]


@pytest.fixture(scope="module")
def small_instance_bank():
    """100 noisy two-mode instances solved exactly, shared by two criteria."""
    bank = []
    t0 = time.perf_counter()
    for i in range(100):
        d, N = SMALL_COMBOS[i % len(SMALL_COMBOS)]
        data, _, _ = generate_instance(
            GeneratorSpec(n=2, d=d, N=N, noise_sigma=0.1, seed=i))
        enum = enumeration_solve(data, 2, SQUARED)
        brute = brute_force_solve(data, 2, SQUARED)
        bank.append((data, enum, brute))
    elapsed = time.perf_counter() - t0
    return bank, elapsed


def test_criterion_01_exact_solver_matches_brute_force(small_instance_bank):
    bank, elapsed = small_instance_bank
    gaps = [abs(e.cost - b.cost) for _, e, b in bank]
    print(f"criterion 1: max gap {max(gaps):.2e} over 100 instances, "
          f"{elapsed:.1f}s")
    assert len(bank) == 100
    assert all(g <= 1e-9 for g in gaps)
    assert elapsed < 60.0


def test_criterion_02_exact_solver_matches_brute_force_three_modes():
    t0 = time.perf_counter()
    gaps = []
    for seed, loss in itertools.product(range(20), (SQUARED, ABSOLUTE)):
        data, _, _ = generate_instance(
            GeneratorSpec(n=3, d=1, N=7, noise_sigma=0.1, seed=seed))
        e = enumeration_solve(data, 3, loss)
        b = brute_force_solve(data, 3, loss)
        assert e.status == "optimal" and e.warnings == (), (seed, loss)
        gaps.append(abs(e.cost - b.cost))
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: max gap {max(gaps):.2e} over 20 instances x 2 "
          f"losses, all certified optimal, {elapsed:.1f}s")
    assert all(g <= 1e-9 for g in gaps)
    assert elapsed < 120.0


def test_criterion_03_majority_vote_equals_assignment():
    rng = np.random.default_rng(33)
    agreements = 0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        models = ModelSet(rng.standard_normal((n, d)))
        x = rng.standard_normal(d)
        y = float(rng.standard_normal())
        classifiers = pairwise_classifiers_from_models(models)
        if any(abs(f) <= SIGN_TOL
               for c in classifiers for f in c.factors(x, y)):
            continue
        checked += 1
        label, tied = majority_vote_label(x, y, classifiers)
        data = Dataset(x[None, :], np.array([y]))
        assigned = int(assign_modes(data, models, SQUARED).q[0])
        if tied == (label,) and label == assigned:
            agreements += 1
    print(f"criterion 3: {agreements}/1000 agreements")
    assert agreements == 1000


def test_criterion_04_dichotomy_enumeration_matches_sweep_oracle():
    rng = np.random.default_rng(44)
    for trial in range(50):
        m = 1 + trial % 2
        N = int(rng.integers(m + 2, 13))
        pts = rng.standard_normal((N, m))
        enum = enumerate_linear_dichotomies(pts)
        sweep = sweep_dichotomies_oracle(pts)
        assert enum.patterns() == sweep.patterns(), (trial, m, N)
        assert len(enum) <= 2 ** m * comb(N, m - 1)
    print("criterion 4: 50/50 point sets, enumeration == sweep oracle")


def test_criterion_05_tie_set_size_within_bound():
    def pair_bound(d, n):
        return (2 * d + 1) * n * (n - 1) // 2

    # constructed exact ties saturating the bound, one mode pair
    x1 = np.array([[1.0], [2.0], [0.0], [3.0], [5.0]])
    y1 = np.array([0.0, 0.0, 5.0, 2.0, -11.0])
    w1 = ModelSet(np.array([[1.0], [-1.0]]))
    assert check_general_position(x1).ok
    assert check_general_position(np.hstack([x1, y1[:, None]])).ok
    ties1 = assign_modes(Dataset(x1, y1), w1, SQUARED).tie_set
    assert len(ties1) == pair_bound(1, 2) == 3

    x2 = np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 3.0], [2.0, 9.0],
                   [3.0, 2.0], [1.0, 7.0], [4.0, 1.0]])
    y2 = np.array([9.0, -4.0, 3.0, 9.0, 2.0, 30.0, -17.0])
    w2 = ModelSet(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    assert check_general_position(x2).ok
    assert check_general_position(np.hstack([x2, y2[:, None]])).ok
    ties2 = assign_modes(Dataset(x2, y2), w2, SQUARED).tie_set
    assert len(ties2) == pair_bound(2, 2) == 5

    # random draws: generic data never exceeds the bound
    rng = np.random.default_rng(55)
    worst = 0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        N = int(rng.integers(n * d, 15))
        data = Dataset(rng.standard_normal((N, d)), rng.standard_normal(N))
        models = ModelSet(rng.standard_normal((n, d)))
        ties = assign_modes(data, models, SQUARED).tie_set
        assert len(ties) <= pair_bound(d, n)
        worst = max(worst, len(ties))
    print(f"criterion 5: constructed ties saturate bounds (3, 5); "
          f"random max {worst}")


def test_criterion_06_reduction_agrees_with_subset_scan():
    multisets = [s for d in (1, 2, 3, 4)
                 for s in itertools.combinations_with_replacement(range(1, 7), d)]
    assert len(multisets) == 209
    yes_count = 0
    for s in multisets:
        p = PartitionInstance(s)
        decision = decide_threshold(partition_to_instance(p),
                                    method="noiseless")
        expected = partition_has_equal_split(s)
        assert decision.answer == expected, s
        if decision.answer:
            yes_count += 1
            try:
                subset = extract_partition(decision.models, p)
            except CertificateError:
                swapped = ModelSet(decision.models.w[::-1].copy())
                subset = extract_partition(swapped, p)
            assert 2 * sum(subset) == p.total, s
    # a second solver route cross-checks a slice of the grid
    for s in multisets[::10]:
        decision = decide_threshold(partition_to_instance(PartitionInstance(s)),
                                    method="brute")
        assert decision.answer == partition_has_equal_split(s), s
    print(f"criterion 6: 209/209 decisions correct, {yes_count} certificates "
          f"extracted, 21 brute-force cross-checks")


def test_criterion_07_noiseless_solver_recovers_ground_truth():
    # grid chosen so every mode holds at least d points (seeds 0..4 qualify)
    grid = [(2, 1, 12), (2, 2, 16), (2, 3, 24),
            (3, 1, 15), (3, 2, 21), (3, 3, 30)]
    solved = 0
    for n, d, N in grid:
        for seed in range(5):
            spec = GeneratorSpec(n=n, d=d, N=N, noise_sigma=0.0, seed=seed)
            data, truth_w, truth_q = generate_instance(spec)
            counts = [int(np.sum(truth_q.q == m)) for m in range(1, n + 1)]
            assert min(counts) >= d, (n, d, N, seed)
            report = noiseless_solve(data, n)
            assert report.status == "optimal", (n, d, N, seed)
            assert report.cost <= 1e-12, (n, d, N, seed)
            assert label_accuracy(report.labeling, truth_q, n) == 1.0, \
                (n, d, N, seed)
            solved += 1
    print(f"criterion 7: {solved}/30 noiseless instances certified and "
          f"recovered")


def test_criterion_08_heuristic_never_beats_exact_and_is_deterministic(
        small_instance_bank):
    bank, _ = small_instance_bank
    for data, enum, _ in bank:
        heur = altmin_solve(data, 2, SQUARED, SolverConfig())
        assert heur.cost >= enum.cost - 1e-9
    data0, _, _ = bank[0]
    a = altmin_solve(data0, 2, SQUARED, SolverConfig(seed=7))
    b = altmin_solve(data0, 2, SQUARED, SolverConfig(seed=7))
    assert a.cost == b.cost
    assert a.labeling.q.tolist() == b.labeling.q.tolist()
    assert np.array_equal(a.models.w, b.models.w)
    assert a.candidates_examined == b.candidates_examined
    print("criterion 8: heuristic >= exact on 100/100; seeded reruns "
          "identical")


def test_criterion_09_polynomial_scaling_of_the_exact_solver():
    enum_result = bench_scaling("enum", [20, 50, 100, 200], repeats=3, seed=0)
    brute_result = bench_scaling("brute", [8, 10, 12], repeats=3, seed=0)
    print(f"criterion 9: enum exponent {enum_result.fitted_exponent:.2f}, "
          f"brute exponent {brute_result.fitted_exponent:.2f}")
    assert enum_result.complete
    assert enum_result.fitted_exponent <= 4.0
    assert brute_result.fitted_exponent >= 4.5
    assert brute_result.fitted_exponent > enum_result.fitted_exponent


def test_criterion_10_refinement_descends_to_an_assignment_fixpoint():
    rng = np.random.default_rng(100)
    zero_tol = DEFAULT_TOLERANCES.zero_tol
    starts = 0
    for i in range(20):
        d = 1 + i % 2
        data, _, _ = generate_instance(
            GeneratorSpec(n=2, d=d, N=10, noise_sigma=0.2, seed=i))
        for _ in range(5):
            res = refine_alternate(data, ModelSet(rng.standard_normal((2, d))),
                                   SQUARED)
            assert np.all(np.diff(res.costs) <= zero_tol)
            fixpoint = assign_modes(data, res.models, SQUARED)
            assert np.array_equal(fixpoint.q, res.labeling.q)
            starts += 1
    print(f"criterion 10: {starts}/100 starts descended to a fixpoint")
    assert starts == 100
