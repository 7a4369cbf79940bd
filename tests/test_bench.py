"""Runtime-scaling harness."""

import warnings

import pytest

from switchreg import (SQUARED, BenchResult, CapsExceededError, GeneratorSpec,
                       SolverConfig, bench_scaling, brute_force_solve,
                       generate_instance)
from switchreg import bench


def test_result_validation():
    with pytest.raises(ValueError):
        BenchResult(method="enum", sizes=(10, 10), times=(0.1, 0.2),
                    fitted_exponent=1.0, complete=True)
    with pytest.raises(ValueError):
        BenchResult(method="enum", sizes=(10, 20), times=(0.1, 0.0),
                    fitted_exponent=1.0, complete=True)
    with pytest.raises(ValueError):
        BenchResult(method="enum", sizes=(10,), times=(0.1,),
                    fitted_exponent=1.0, complete=True)
    with pytest.raises(ValueError, match="^sizes and times must be parallel$"):
        BenchResult(method="enum", sizes=(10, 20), times=(0.1,),
                    fitted_exponent=1.0, complete=True)


def test_zero_repeats_rejected():
    with pytest.raises(ValueError, match="repeats"):
        bench_scaling("altmin", [40, 80], repeats=0)


def test_altmin_near_linear_growth():
    result = bench_scaling("altmin", [100, 1000], repeats=2, seed=0)
    assert result.complete
    assert result.fitted_exponent <= 2.0


def test_brute_exponential_growth_visible():
    # n^N work multiplies the time by about n per point; work of degree 5
    # in N would give at most (N'/N)^5, 4.91 from 8 to 11 points and 2.31
    # from 11 to 13, where 2^3 and 2^2 are expected. Each size keeps its
    # fastest of four interleaved ladders, so that a slow spell of a
    # shared machine during one size's pass does not decide a ratio
    ladders = [bench_scaling("brute", [8, 11, 13], repeats=1, seed=0)
               for _ in range(4)]
    assert all(result.complete for result in ladders)
    t8, t11, t13 = (min(ts) for ts in zip(*(r.times for r in ladders)))
    print(f"brute growth: t11/t8 {t11 / t8:.2f}, t13/t11 {t13 / t11:.2f}")
    assert t11 / t8 > (11 / 8) ** 5
    assert t13 / t11 > (13 / 11) ** 5
    # and the work itself, exactly: the 2^(N-1) canonical labelings
    for N in (8, 11, 13):
        data, _, _ = generate_instance(GeneratorSpec(n=2, d=1, N=N, seed=0))
        assert brute_force_solve(data, 2, SQUARED).candidates_examined == \
            2 ** (N - 1)


def test_caps_truncate_the_ladder():
    result = bench_scaling("brute", [8, 10, 30], repeats=1,
                           cfg=SolverConfig(candidate_budget=5000))
    assert not result.complete
    assert result.sizes == (8, 10)
    assert any("30" in w for w in result.warnings)


def test_too_few_completed_sizes_is_an_error():
    with pytest.raises(CapsExceededError):
        bench_scaling("brute", [8, 30], repeats=1,
                      cfg=SolverConfig(candidate_budget=5000))


def test_requires_at_least_two_sizes():
    with pytest.raises(ValueError):
        bench_scaling("enum", [10])


@pytest.mark.parametrize("sizes", [[16, 15], [10, 10], [0, 5], [-3, 5]])
def test_sizes_checked_before_any_solve(monkeypatch, sizes):
    def refuse(*args):
        raise AssertionError("solved before the sizes were checked")

    monkeypatch.setattr(bench, "solve_instance", refuse)
    monkeypatch.setattr(bench, "generate_instance", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sizes must be"):
            bench_scaling("brute", sizes, repeats=1)
