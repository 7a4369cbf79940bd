"""Runtime-scaling harness."""

import pytest

from switchreg import BenchResult, CapsExceededError, SolverConfig, bench_scaling


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


def test_zero_repeats_rejected():
    with pytest.raises(ValueError, match="repeats"):
        bench_scaling("altmin", [40, 80], repeats=0)


def test_altmin_near_linear_growth():
    result = bench_scaling("altmin", [100, 1000], repeats=2, seed=0)
    assert result.complete
    assert result.fitted_exponent <= 2.0


def test_brute_exponential_growth_visible():
    result = bench_scaling("brute", [8, 10, 12], repeats=2, seed=0)
    assert result.complete
    # time ratios grow across the ladder, the signature of n^N work
    r1 = result.times[1] / result.times[0]
    r2 = result.times[2] / result.times[1]
    assert r2 > r1 > 1.0


def test_caps_truncate_the_ladder():
    result = bench_scaling("brute", [8, 10, 30], repeats=1,
                           config=SolverConfig(brute_budget=5000))
    assert not result.complete
    assert result.sizes == (8, 10)
    assert any("30" in w for w in result.warnings)


def test_too_few_completed_sizes_is_an_error():
    with pytest.raises(CapsExceededError):
        bench_scaling("brute", [8, 30], repeats=1,
                      config=SolverConfig(brute_budget=5000))


def test_requires_at_least_two_sizes():
    with pytest.raises(ValueError):
        bench_scaling("enum", [10])
