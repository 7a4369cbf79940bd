"""Empirical scaling measurement for the solvers.

Times one solver over a ladder of instance sizes N and fits the growth
exponent alpha of time ~ C * N^alpha by least squares on log-log points.
Sizes where the solver refuses (a budget) truncate the ladder; the
result is flagged incomplete but still usable if two or more sizes ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import LossModel, SQUARED
from .datasets import GeneratorSpec, generate_instance
from .solvers import CapsExceededError, SolverConfig, solve_instance

__all__ = ["BenchResult", "bench_scaling"]


@dataclass(frozen=True)
class BenchResult:
    """Timing ladder plus the fitted log-log slope."""

    method: str
    sizes: tuple[int, ...]
    times: tuple[float, ...]
    fitted_exponent: float
    complete: bool
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if len(self.sizes) != len(self.times):
            raise ValueError("sizes and times must be parallel")
        if len(self.sizes) < 2:
            raise ValueError("need at least two completed sizes to fit a slope")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if any(not (t > 0) for t in self.times):
            raise ValueError("times must be positive")


def bench_scaling(method: str, sizes, *, n: int = 2, d: int = 1,
                  noise_sigma: float = 0.1, seed: int = 0,
                  repeats: int = 3, loss: LossModel = SQUARED,
                  cfg: SolverConfig = SolverConfig()) -> BenchResult:
    """Generate one instance per size, time the solver, fit the exponent.

    The sizes must be positive and strictly increasing, which is checked
    before anything is generated. Each size is timed `repeats` times and
    the minimum is kept, which suppresses scheduler noise. A
    CapsExceededError stops the ladder.
    """
    sizes = [int(N) for N in sizes]
    if len(sizes) < 2:
        raise ValueError("need at least two sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    if sizes[0] < 1:
        raise ValueError("sizes must be positive")
    if repeats < 1:
        raise ValueError("need repeats >= 1")
    done_sizes: list[int] = []
    done_times: list[float] = []
    warnings: list[str] = []
    complete = True
    for N in sizes:
        data, _, _ = generate_instance(
            GeneratorSpec(n=n, d=d, N=N, noise_sigma=noise_sigma, seed=seed))
        try:
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                solve_instance(data, n, loss, method, cfg)
                best = min(best, time.perf_counter() - t0)
        except CapsExceededError as exc:
            warnings.append(f"N={N}: {exc}")
            complete = False
            break
        done_sizes.append(N)
        done_times.append(max(best, 1e-9))
    if len(done_sizes) < 2:
        raise CapsExceededError(
            f"method {method!r} completed {len(done_sizes)} size(s); "
            "cannot fit an exponent")
    slope = float(np.polyfit(np.log(done_sizes), np.log(done_times), 1)[0])
    return BenchResult(method=method, sizes=tuple(done_sizes),
                       times=tuple(done_times), fitted_exponent=slope,
                       complete=complete, warnings=tuple(warnings))
