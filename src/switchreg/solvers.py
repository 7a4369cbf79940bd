"""Solvers for switching linear regression.

Four methods with different guarantees:

* brute_force_solve: exact, enumerates labelings, exponential in N.
* enumeration_solve: exact on any data, polynomial in N for fixed d and n.
  In some optimal labeling every mode's point set is a region: an AND of
  n-1 products of linear dichotomies of the lifted points (x_i, y_i) and of
  the x_i themselves. The dichotomies are enumerated exactly, with no
  general-position assumption, so fitting each region once and taking the
  min-cost partition of the data into n regions is globally optimal; only
  the partitions within zero_tol of it are re-fit.
* noiseless_solve: exact for data admitting a zero-error fit; reconstructs
  each mode from d interpolation points.
* altmin_solve: seeded alternating-minimization baseline, local minima and
  all, for contrast.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    SQUARED,
    Dataset,
    Labeling,
    LossModel,
    ModelSet,
    Tolerances,
    _assign_arrays,
    _canonicalize_arrays,
    _cost_arrays,
)
# no solver calls check_general_position; the benchmark's tracer wraps it by
# name on this module
from .geometry import (_packed_keys, check_general_position,
                       enumerate_linear_dichotomies, unique_rows)

__all__ = [
    "CapsExceededError",
    "SolverConfig",
    "SolveReport",
    "RefineResult",
    "solve_mode_regression",
    "fit_modes",
    "refine_alternate",
    "brute_force_solve",
    "CandidateStream",
    "enumeration_solve",
    "noiseless_solve",
    "altmin_solve",
    "solve_instance",
    "SOLVER_METHODS",
]

_RIDGE = 1e-10
_MAX_REFINE_ROUNDS = 1000
# Regions fitted per batch by enumeration_solve, and interpolation subsets
# per batch by _absolute_fit. It bounds the scorer's (chunk, N) and, under
# absolute loss, (chunk, S) arrays, and the fit's (chunk, k) residuals.
_SCORE_CHUNK = 1024
# Fixed caps of the enumeration solver and of the noiseless cover search
_D_MAX = 3
_N_MAX = 3
_NODE_BUDGET = 1_000_000

SOLVER_METHODS = ("brute", "enum", "noiseless", "altmin")


class CapsExceededError(RuntimeError):
    """A solver refused to run because a size cap or budget was exceeded."""


@dataclass(frozen=True)
class SolverConfig:
    """Budgets, heuristic settings and tolerances shared by the solvers.

    restarts and seed drive the heuristic. brute_budget bounds brute
    force's labelings, candidate_budget the rows each step of
    CandidateStream's region search builds and the noiseless solver's
    interpolation subsets. The enumeration solver's caps (d <= 3, n <= 3)
    and the noiseless cover search's node budget (1,000,000) are fixed.
    """

    restarts: int = 10
    seed: int = 0
    tol: Tolerances = DEFAULT_TOLERANCES
    brute_budget: int = 2_000_000
    candidate_budget: int = 2_000_000

    def __post_init__(self):
        for name in ("restarts", "brute_budget", "candidate_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solver run.

    cost always equals the empirical cost of (models, labeling) on the data
    it was computed for; labeling is canonical (modes numbered by first
    occurrence). candidates_examined counts method-specific units: labelings
    for brute force, the P ** (n(n-1)/2) classifier combinations the
    candidates cover for enumeration, interpolation systems for the
    noiseless solver, restarts for the heuristic.
    """

    method: str
    cost: float
    models: ModelSet
    labeling: Labeling
    candidates_examined: int
    elapsed: float
    status: str
    warnings: tuple = ()

    def __post_init__(self):
        if self.status not in ("optimal", "heuristic", "infeasible"):
            raise ValueError(f"unknown status {self.status!r}")


@dataclass(frozen=True)
class RefineResult:
    """Refinement outcome; unpacks as (models, labeling), costs carries the
    half-step cost trace."""

    models: ModelSet
    labeling: Labeling
    costs: tuple

    def __iter__(self):
        return iter((self.models, self.labeling))


# ---------------------------------------------------------------------------
# Per-mode regression


def _squared_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares via normal equations; tiny ridge when rank-deficient."""
    k, d = x.shape
    if k == 0:
        return np.zeros(d)
    G = x.T @ x
    b = x.T @ y
    if k >= d:
        try:
            w = np.linalg.solve(G, b)
        except np.linalg.LinAlgError:
            w = None
        if w is not None and np.all(np.isfinite(w)) \
                and np.allclose(G @ w, b, rtol=1e-8, atol=1e-12):
            return w
    return np.linalg.solve(G + _RIDGE * np.eye(d), b)


def _subset_interpolants(x, y, subsets) -> np.ndarray:
    """Minimum-norm interpolant of each row of the (S, s) index array subsets.

    Returns (S, d). Singular values below d * eps of the largest are cut,
    numpy's least-squares default, so a rank-deficient subset gets its
    minimum-norm least-squares solution.
    """
    d = x.shape[1]
    return (np.linalg.pinv(x[subsets], rcond=d * np.finfo(float).eps)
            @ y[subsets][..., None])[..., 0]


def _interpolation_pool(k: int, d: int):
    """Every subset of at most d of k points as (chunk, s) index arrays of
    _SCORE_CHUNK rows at most: the d-subsets first, then smaller ones, each
    size in lexicographic order."""
    for s in range(d, 0, -1):
        subsets = itertools.combinations(range(k), s)
        while chunk := list(itertools.islice(subsets, _SCORE_CHUNK)):
            yield np.array(chunk, dtype=np.int64)


def _absolute_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact least-absolute-deviations fit.

    Some optimal L1 fit is a basic solution of the LP: it interpolates
    rank(x) points with independent regressors, and the minimum-norm
    interpolant of those points predicts the same on every point. So the
    best interpolant of a subset of at most d points is an exact L1 fit,
    whatever the rank of x or the number of points. Ties keep the first
    subset in pool order.
    """
    k, d = x.shape
    best_total = np.inf
    best_w = np.zeros(d)
    for subsets in _interpolation_pool(k, d):
        ws = _subset_interpolants(x, y, subsets)
        totals = np.abs(y - ws @ x.T).sum(axis=1)
        i = int(np.argmin(totals))
        if totals[i] < best_total:
            best_total = totals[i]
            best_w = ws[i]
    return best_w


def solve_mode_regression(x, y, loss: LossModel) -> np.ndarray:
    """Best single linear model for one mode's points under the loss.

    Accepts an empty subset (returns the zero vector) and rank-deficient
    or small subsets: squared loss adds a tiny ridge to singular normal
    equations, absolute loss stays exact (the best interpolant of at most d
    points).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be (k, d), got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError(f"y must be ({x.shape[0]},), got shape {y.shape}")
    if loss.kind == "squared":
        return _squared_fit(x, y)
    return _absolute_fit(x, y)


def _fit_array(x, y, q0, n, loss: LossModel) -> np.ndarray:
    w = np.zeros((n, x.shape[1]))
    for j in range(n):
        mask = q0 == j
        if mask.any():
            w[j] = solve_mode_regression(x[mask], y[mask], loss)
    return w


def fit_modes(data: Dataset, labeling: Labeling, n: int, loss: LossModel) -> ModelSet:
    """Fit each mode independently to its assigned points."""
    if labeling.N != data.N:
        raise ValueError(f"labeling covers {labeling.N} points, data has {data.N}")
    if np.any(labeling.q > n):
        raise ValueError(f"label exceeds n={n}")
    return ModelSet(_fit_array(data.x, data.y, labeling.q - 1, n, loss))


def refine_alternate(data: Dataset, models: ModelSet, loss: LossModel,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> RefineResult:
    """Alternate optimal assignment and per-mode refitting until stable.

    Both half-steps are exact minimizations under either loss, so the
    recorded cost trace is non-increasing (up to the ridge used for
    rank-deficient squared-loss fits, which stays far below zero_tol).
    Stops when the labeling repeats or a full round improves the cost by
    less than zero_tol; the returned labeling is always the optimal
    assignment for the returned models.
    """
    if models.d != data.d:
        raise ValueError(f"models have d={models.d}, data has d={data.d}")
    x, y = data.x, data.y
    n = models.n
    w = models.w
    q0, ties = _assign_arrays(x, y, w, loss, tol.tie_tol)
    costs = [_cost_arrays(x, y, w, q0, loss)]
    prev_round = None
    for _ in range(_MAX_REFINE_ROUNDS):
        w = _fit_array(x, y, q0, n, loss)
        costs.append(_cost_arrays(x, y, w, q0, loss))
        new_q0, ties = _assign_arrays(x, y, w, loss, tol.tie_tol)
        costs.append(_cost_arrays(x, y, w, new_q0, loss))
        stable = np.array_equal(new_q0, q0)
        q0 = new_q0
        if stable:
            break
        if prev_round is not None and prev_round - costs[-1] < tol.zero_tol:
            break
        prev_round = costs[-1]
    return RefineResult(ModelSet(w),
                        Labeling(q0 + 1, tie_set=(ties + 1).tolist()),
                        tuple(costs))


# ---------------------------------------------------------------------------
# The end of every solve


def _least(x, y, loss: LossModel, candidates):
    """The (q0, w) candidate with the least (cost, labels), and how many
    candidates there were. Ties on cost keep the lexicographically smallest
    label row, so the choice does not depend on the candidates' order."""
    best, seen = None, 0
    for q0, w in candidates:
        seen += 1
        key = (_cost_arrays(x, y, w, q0, loss), tuple(q0.tolist()))
        if best is None or key < best[0]:
            best = (key, q0, w)
    return best[1], best[2], seen


def _report(method: str, data: Dataset, loss: LossModel, q0, w,
            tol: Tolerances, t0: float, examined: int,
            status: str) -> SolveReport:
    """The SolveReport of the 0-based labels q0 under the models w, with the
    points where two modes tie within tie_tol. Ties are per point, so
    permuting the modes leaves them the same."""
    x, y = data.x, data.y
    _, ties = _assign_arrays(x, y, w, loss, tol.tie_tol)
    return SolveReport(method=method, cost=_cost_arrays(x, y, w, q0, loss),
                       models=ModelSet(w),
                       labeling=Labeling(q0 + 1, tie_set=(ties + 1).tolist()),
                       candidates_examined=examined,
                       elapsed=time.perf_counter() - t0, status=status)


# ---------------------------------------------------------------------------
# Brute force


def _canonical_label_arrays(N: int, n: int):
    """All labelings with modes numbered by first occurrence (q_1 = 1)."""
    q = np.zeros(N, dtype=np.int64)

    def rec(i, used):
        if i == N:
            yield q.copy()
            return
        for v in range(min(used + 1, n)):
            q[i] = v
            yield from rec(i + 1, max(used, v + 1))

    yield from rec(1, 1)


def brute_force_solve(data: Dataset, n: int, loss: LossModel,
                      budget: int = 2_000_000,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> SolveReport:
    """Exact optimum by trying every labeling (canonical forms only).

    Fixing mode numbers to first-occurrence order drops the n!-fold
    permutation symmetry; the optimum is unchanged. Refuses instances with
    n^N above the budget.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t0 = time.perf_counter()
    if float(n) ** data.N > budget:
        raise CapsExceededError(
            f"brute force needs {n}^{data.N} labelings, budget is {budget}")
    x, y = data.x, data.y
    q0, w, examined = _least(x, y, loss, (
        (q0, _fit_array(x, y, q0, n, loss))
        for q0 in _canonical_label_arrays(data.N, n)))
    return _report("brute", data, loss, q0, w, tol, t0, examined, "optimal")


# ---------------------------------------------------------------------------
# Exact enumeration


class CandidateStream:
    """Deterministic candidate partitions for the exact solver.

    One pool of pairwise patterns serves every mode pair: each is the
    elementwise product of a dichotomy of the lifted points (deciding which
    of the two modes has the smaller residual on each side of the midpoint
    hyperplane) and a dichotomy of the regressors (the difference
    hyperplane), "first mode wins" where the signs agree. Both dichotomy
    sets are closed under negation, so the products are the rows with +1 at
    the first live point (x_i != 0) and their live negations.

    regions is the boolean (R, N) table of the point sets a mode may take:
    the distinct ANDs of n-1 pool rows on the live points, the empty set
    (a & ~a) and all live points among them. Iterating yields one (n,)
    index row into regions per partition of the live points into n
    regions; partitions holds them as one (K, n) array. The regions are
    sorted by the packed keys of their complements, which orders them by
    first point, and a partition's members ascend: each holds the first
    live point the ones before it leave. So the search extends each partial
    partition by the regions starting at that point that miss its union,
    and closes it with the region keyed by that union, the rest of the live
    points. Each partition is found once; its labeling (member m is mode m,
    the dead points mode 0) is canonical.

    The partitions contain an optimal labeling on any data, with no
    general-position assumption. The dichotomy pools are exact: they hold
    every strict dichotomy of the live points. Perturbing an optimal model
    set generically keeps an optimal assignment (a tie-break of the
    optimum's), makes every pair product a product of strict dichotomies and
    orders the residuals at each live point strictly. Then every mode peels
    first: a point is in mode j exactly where j beats each other mode k, and
    "j beats k" is a pool row or its live negation. So each mode's set is an
    AND of n-1 pool rows, a region, and the labeling is a partition.

    pair_products is the boolean (P, N) pool, True on the dead points. At
    n = 2 a row and its negation make one partition, so the pool keeps one
    of each, and combinations_examined, the P ** (n(n-1)/2) classifier
    combinations the candidates cover, halves with it. candidate_budget
    bounds the rows each step builds: the P**2 region pairs at n = 3 and
    the partial partitions each extension keeps, P at n = 2. An extension
    tests its (partial partition, region) pairs in chunks of at most that
    many. The constructor refuses a step over it.
    """

    # the search has no vote to tie; kept for the benchmark's traced stream
    tie_truncations = 0

    def __init__(self, data: Dataset, n: int, cfg: SolverConfig | None = None):
        cfg = cfg or SolverConfig()
        if n < 1:
            raise ValueError("need n >= 1")
        if data.d > _D_MAX or n > _N_MAX:
            raise CapsExceededError(
                f"enumeration capped at d <= {_D_MAX}, n <= {_N_MAX}; "
                f"got d={data.d}, n={n}")
        self.data = data
        self.n = n
        N = data.N

        # a point with x_i = 0 has the same residual under every mode: it
        # moves no fit, so it stays out of the regions
        live = np.linalg.norm(data.x, axis=1) > cfg.tol.sign_tol
        pool = half = np.ones((1, N), dtype=bool)
        if n > 1 and live.any():
            # G and H are closed under negation: keep their rows with +1 at
            # the first live point, whose products are +1 there too
            gs = enumerate_linear_dichotomies(data.lifted()[live], cfg.tol).signs > 0
            hs = enumerate_linear_dichotomies(data.x[live], cfg.tol).signs > 0
            gs, hs = gs[gs[:, 0]], hs[hs[:, 0]]
            half = np.ones((len(gs) * len(hs), N), dtype=bool)
            half[:, live] = (gs[:, None, :] == hs[None, :, :]).reshape(
                len(half), -1)
            half = half[unique_rows(half)]
            # and the live negations: distinct, as only the half holds the
            # first live point, and in ascending complement keys
            pool = np.vstack([half[::-1], half ^ live])
        self.pair_products = half if n == 2 else pool
        self.combinations_examined = len(self.pair_products) ** (n * (n - 1) // 2)

        def keep(count):
            if count > cfg.candidate_budget:
                raise CapsExceededError(
                    f"{count} classifier combinations exceed the budget "
                    f"{cfg.candidate_budget}")

        regions = pool & live
        for _ in range(n - 2):
            keep(len(regions) * len(pool))
            regions = (regions[:, None] & pool[None]).reshape(-1, N)
            regions = regions[unique_rows(~regions)]
        self.regions = regions

        def first(rows):        # each row's first point, N if it has none
            return np.where(rows.any(axis=1), rows.argmax(axis=1), N)

        # the complement-key order sorts the regions by their first point
        lead = first(regions)
        parts = np.zeros((1, 0), dtype=np.int64)
        union = np.zeros((1, N), dtype=bool)
        for _ in range(n - 1):
            # the next member holds the first live point the others leave:
            # one block of regions, tried against every partial partition,
            # step partials and at most the budget's pair tests at a time
            at = first(live & ~union)
            lo = np.searchsorted(lead, at)
            size = np.searchsorted(lead, at, side="right") - lo
            step = max(1, cfg.candidate_budget // size.max(initial=1))
            grown, unions = [], []
            for rows in np.array_split(np.arange(len(parts)), len(parts) // step + 1):
                row = np.repeat(rows, size[rows])           # j runs each block
                j = lo[row] + np.arange(len(row)) - np.searchsorted(row, row)
                have, add = union[row], regions[j]
                ok = ~(have & add).any(axis=1)
                grown.append(np.column_stack([parts[row[ok]], j[ok]]))
                unions.append(have[ok] | add[ok])
                keep(sum(map(len, grown)))
            parts, union = np.concatenate(grown), np.concatenate(unions)
        # the last member is the rest of the live points, found by its key
        keys = _packed_keys(~regions)
        rest = _packed_keys(union | ~live)
        last = np.minimum(np.searchsorted(keys, rest), len(keys) - 1)
        hit = keys[last] == rest
        self.partitions = np.column_stack([parts[hit], last[hit]])

    def __iter__(self):
        yield from self.partitions


def _squared_totals(x, y, member):
    """Squared-loss total of each row of the (K, N) 0/1 float member array
    under its own fit.

    The fit follows _squared_fit: the normal equations where their solve is
    accurate, the ridge solve where the Gram matrix is singular or the row
    has fewer than d points, and w = 0 for an empty row.
    """
    N, d = x.shape
    gram = (member @ (x[:, :, None] * x[:, None, :]).reshape(N, d * d)).reshape(
        -1, d, d)                                        # (K, d, d)
    rhs = member @ (x * y[:, None])                      # (K, d)
    k = member.sum(axis=1)
    w = np.zeros(rhs.shape)
    # slogdet shares solve's LU, so a zero sign is exactly solve's singularity
    plain = (k >= d) & (np.linalg.slogdet(gram)[0] != 0)
    if plain.any():
        w[plain] = np.linalg.solve(gram[plain], rhs[plain][..., None])[..., 0]
    err = np.abs(np.einsum("kij,kj->ki", gram, w) - rhs)
    plain &= np.all(err <= 1e-12 + 1e-8 * np.abs(rhs), axis=1)
    ridge = (k > 0) & ~plain
    if ridge.any():
        w[ridge] = np.linalg.solve(gram[ridge] + _RIDGE * np.eye(d),
                                   rhs[ridge][..., None])[..., 0]
    return (member * np.square(y - w @ x.T)).sum(axis=1)


def _region_costs(x, y, rows, loss: LossModel) -> np.ndarray:
    """Loss total of one mode fitted to each row of the boolean (K, N) rows.

    Equals the total loss of solve_mode_regression(x[row], y[row], loss) on
    the row's points, up to rounding. Under absolute loss every interpolant
    of _absolute_fit's pool over all N points is a feasible model, and the
    pool holds an exact L1 fit of each row, so the pool's minimum is that
    fit's total. Rows are fitted _SCORE_CHUNK at a time.
    """
    N, d = x.shape
    if loss.kind == "absolute":
        resid = np.concatenate([np.abs(y - _subset_interpolants(x, y, s) @ x.T)
                                for s in _interpolation_pool(N, d)])
    costs = np.empty(len(rows))
    for lo in range(0, len(rows), _SCORE_CHUNK):
        member = rows[lo:lo + _SCORE_CHUNK].astype(float)
        costs[lo:lo + len(member)] = _squared_totals(x, y, member) \
            if loss.kind == "squared" else (member @ resid.T).min(axis=1)
    return costs


def enumeration_solve(data: Dataset, n: int, loss: LossModel,
                      cfg: SolverConfig | None = None) -> SolveReport:
    """Exact solver: the min-cost partition of the data into regions.

    Some optimal labeling is a partition into CandidateStream's regions, so
    no refinement is needed. Every region is fitted once in one batched
    pass, and a partition costs the sum of its members' totals. The
    partitions within zero_tol of the best become canonical label rows and
    are re-fit with the per-mode routine, whose cost is reported. A dead
    point costs the same in every mode; in the first member it gives the
    smallest of those equal-cost labelings. Ties on cost break toward the
    lexicographically smallest canonical labeling, so the report is
    deterministic.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    stream = CandidateStream(data, n, cfg)
    parts = np.array(list(stream))
    x, y = data.x, data.y
    totals = _region_costs(x, y, stream.regions, loss)[parts].sum(axis=1)
    near = parts[totals <= totals.min() + data.N * cfg.tol.zero_tol]
    q0, w, _ = _least(x, y, loss, (
        (q0, _fit_array(x, y, q0, n, loss))
        for q0 in stream.regions[near].argmax(axis=1)))
    return _report("enum", data, loss, q0, w, cfg.tol, t0,
                   stream.combinations_examined, "optimal")


# ---------------------------------------------------------------------------
# Noiseless exact solver


def noiseless_solve(data: Dataset, n: int,
                    cfg: SolverConfig | None = None) -> SolveReport:
    """Exact solver for data admitting a zero-error switching-linear fit.

    Every mode of a zero-error solution is determined by d of its points, so
    interpolating each d-subset of the data yields a candidate pool that
    must contain all true modes. The solver deduplicates candidates by their
    exact-fit sets and searches for n of them covering every point
    (largest fit set first, branching on the lowest uncovered point). A
    found cover is verified by assignment cost <= zero_tol; if none exists
    the best greedy collection is reported with status infeasible, meaning
    no exact fit was certified.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    if n < 1:
        raise ValueError("need n >= 1")
    x, y = data.x, data.y
    N, d = data.N, data.d
    if N < d:
        raise ValueError(f"need at least d={d} points, got N={N}")
    n_subsets = comb(N, d)
    if n_subsets > cfg.candidate_budget:
        raise CapsExceededError(
            f"{n_subsets} interpolation subsets exceed the budget "
            f"{cfg.candidate_budget}")

    subsets = np.array(list(itertools.combinations(range(N), d)))
    ws = _subset_interpolants(x, y, subsets)         # (S, d)
    point_tol = cfg.tol.zero_tol * (1.0 + np.abs(y))
    resid = np.abs(y[None, :] - ws @ x.T)            # (S, N)
    fits = resid <= point_tol[None, :]
    # keep only candidates that actually interpolate their own subset
    good = np.take_along_axis(fits, subsets, axis=1).all(axis=1)

    # good rows by descending fit size, one per distinct fit set
    order = np.argsort(-fits.sum(axis=1), kind="stable")
    order = order[good[order]]
    order = order[np.sort(unique_rows(fits[order]))]
    cand_w, fit_matrix = ws[order], fits[order]      # fit_matrix (C, N) boolean

    def finish(chosen, status):
        # cost under squared loss; any admissible loss is zero exactly when
        # every residual is zero, so certification is loss-independent
        if chosen:
            w = cand_w[chosen]
            while w.shape[0] < n:
                w = np.vstack([w, w[:1]])
        else:
            w = np.zeros((n, d))
        q0, _ = _assign_arrays(x, y, w, SQUARED, cfg.tol.tie_tol)
        return _report("noiseless", data, SQUARED,
                       *_canonicalize_arrays(q0, w), cfg.tol, t0,
                       len(subsets), status)

    if not len(order):
        return finish([], "infeasible")

    sizes = fit_matrix.sum(axis=1)
    max_size = int(sizes.max())
    by_point = [np.flatnonzero(fit_matrix[:, i]) for i in range(N)]
    nodes = 0

    def search(uncovered, modes_left):
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise CapsExceededError(
                f"noiseless cover search exceeded {_NODE_BUDGET} nodes")
        remaining = np.flatnonzero(uncovered)
        if remaining.size == 0:
            return []
        if modes_left == 0 or remaining.size > modes_left * max_size:
            return None
        i = remaining[0]
        for c in by_point[i]:
            sub = search(uncovered & ~fit_matrix[c], modes_left - 1)
            if sub is not None:
                return [int(c)] + sub
        return None

    cover = search(np.ones(N, dtype=bool), n)
    if cover is not None:
        report = finish(cover, "optimal")
        if report.cost <= cfg.tol.zero_tol:
            return report
    # no certified zero-cost fit: report the best greedy collection
    chosen = []
    uncovered = np.ones(N, dtype=bool)
    for _ in range(min(n, len(cand_w))):
        gains = fit_matrix[:, uncovered].sum(axis=1)
        c = int(np.argmax(gains))
        chosen.append(c)
        uncovered &= ~fit_matrix[c]
    return finish(chosen, "infeasible")


# ---------------------------------------------------------------------------
# Alternating-minimization heuristic


def altmin_solve(data: Dataset, n: int, loss: LossModel, restarts: int = 10,
                 seed: int = 0,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> SolveReport:
    """Seeded multi-start alternating minimization. No optimality guarantee.

    Each restart interpolates n disjoint random d-subsets for the initial
    models (falling back to Gaussian parameters when N < n d), then refines.
    Deterministic for a fixed seed.
    """
    if restarts < 1:
        raise ValueError("need restarts >= 1")
    t0 = time.perf_counter()
    x, y = data.x, data.y
    N, d = data.N, data.d

    def restart(r):
        rng = np.random.default_rng([seed, r])
        if N >= n * d:
            idx = rng.choice(N, size=n * d, replace=False).reshape(n, d)
            w0 = _subset_interpolants(x, y, idx)
        else:
            w0 = rng.standard_normal((n, d))
        models, labeling = refine_alternate(data, ModelSet(w0), loss, tol)
        return _canonicalize_arrays(labeling.q - 1, models.w)

    q0, w, examined = _least(x, y, loss, map(restart, range(restarts)))
    return _report("altmin", data, loss, q0, w, tol, t0, examined,
                   "heuristic")


def solve_instance(data: Dataset, n: int, loss: LossModel, method: str,
                   cfg: SolverConfig | None = None) -> SolveReport:
    """Dispatch to a solver by method name."""
    cfg = cfg or SolverConfig()
    if method == "brute":
        return brute_force_solve(data, n, loss, budget=cfg.brute_budget,
                                 tol=cfg.tol)
    if method == "enum":
        return enumeration_solve(data, n, loss, cfg)
    if method == "noiseless":
        return noiseless_solve(data, n, cfg)
    if method == "altmin":
        return altmin_solve(data, n, loss, restarts=cfg.restarts,
                            seed=cfg.seed, tol=cfg.tol)
    raise ValueError(f"unknown method {method!r} (expected one of {SOLVER_METHODS})")
