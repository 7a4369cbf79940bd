"""Metamorphic checks: transforms of an instance whose optimum is known
without solving it.

Permuting the points and negating x leave the optimum as it is. Scaling x
and y together by 2^k is exact in floating point, barring overflow and
underflow: every residual scales by 2^k, so the optimal squared cost scales
by 4^k and the absolute one by 2^k. So brute's and enum's costs on the
transformed data, divided by that factor, must stay within N * ZERO_TOL of
brute's optimum on the untransformed data. The oracle is the transform, not
a second solver, so it does not share the per-mode fit with what it checks.

Rescaling one regressor column alone is not here: the fits are not
equivariant under it today, and enum and brute end above the unscaled
optimum together at large scales.
"""

import itertools

import numpy as np
import pytest

from switchreg import (ABSOLUTE, SQUARED, ZERO_TOL, Dataset, GeneratorSpec,
                       brute_force_solve, enumeration_solve,
                       generate_instance)

# (n, d, N) at brute's sizes: n = 2, d <= 3, N <= 9 and n = 3, d <= 2, N <= 8
_SIZES = [(2, 1, 9), (2, 2, 9), (2, 3, 9), (3, 1, 8), (3, 2, 8)]
_SCALES = (10, -10, 30, -30)


def _instances():
    """(label, data, n): generator data (noise 0.1) and integer grids with
    a zero regressor and a repeated row, two draws of each at each size."""
    for (n, d, N), seed in itertools.product(_SIZES, range(2)):
        yield f"gen{seed}-n{n}-d{d}-N{N}", generate_instance(GeneratorSpec(
            n=n, d=d, N=N, noise_sigma=0.1, seed=seed))[0], n
        rng = np.random.default_rng([71, n, d, seed])
        x = rng.integers(-2, 3, size=(N, d)).astype(float)
        y = rng.integers(-2, 3, size=N).astype(float)
        x[1] = 0.0
        x[-1], y[-1] = x[0], y[0]
        yield f"grid{seed}-n{n}-d{d}-N{N}", Dataset(x, y), n


def _transforms(data, seed):
    """(name, transformed data, k): the transform scales every residual
    of every model set, moved with it, by 2^k."""
    order = np.random.default_rng(seed).permutation(data.N)
    yield "permute", Dataset(data.x[order], data.y[order]), 0
    yield "negate-x", Dataset(-data.x, data.y), 0
    for k in _SCALES:
        yield f"scale-2^{k}", Dataset(np.ldexp(data.x, k),
                                      np.ldexp(data.y, k)), k


@pytest.mark.parametrize("loss", [SQUARED, ABSOLUTE], ids=lambda l: l.kind)
def test_exact_costs_follow_the_transform(loss):
    power = 2 if loss is SQUARED else 1
    for i, (label, data, n) in enumerate(_instances()):
        optimum = brute_force_solve(data, n, loss).cost
        for name, moved, k in _transforms(data, i):
            for solve in (brute_force_solve, enumeration_solve):
                report = solve(moved, n, loss)
                assert report.status == "optimal"
                cost = np.ldexp(report.cost, -power * k)
                assert abs(cost - optimum) <= data.N * ZERO_TOL, \
                    (label, name, solve.__name__, cost, optimum)
