"""Solvers for switching linear regression.

Four methods with different guarantees:

* brute_force_solve: exact, enumerates labelings, exponential in N.
* enumeration_solve: exact on any data, polynomial in N for fixed d and n.
  Candidate labelings come from products of linear dichotomies of the
  lifted points (x_i, y_i) and of the x_i themselves, one product per mode
  pair, joined into regions mode by mode. The dichotomies are enumerated
  exactly, with no general-position assumption, so an optimal labeling
  appears among these candidates and fitting each one and keeping the best
  is globally optimal; all candidates are scored in one batched pass and
  only the best are re-fit.
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
from .geometry import check_general_position, enumerate_linear_dichotomies, unique_rows

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
# Candidates scored per batch by enumeration_solve, and interpolation subsets
# per batch by _absolute_fit. It bounds the scorer's (chunk, n, N) and, under
# absolute loss, (chunk, n, S) arrays, and the fit's (chunk, k) residuals.
_SCORE_CHUNK = 512

SOLVER_METHODS = ("brute", "enum", "noiseless", "altmin")


class CapsExceededError(RuntimeError):
    """A solver refused to run because a size cap or budget was exceeded."""


@dataclass(frozen=True)
class SolverConfig:
    """Caps, budgets, and tolerances shared by the solvers.

    d_max and n_max gate the enumeration solver; restarts and seed drive
    the heuristic. brute_budget bounds brute force's labelings,
    candidate_budget the rows each step of CandidateStream's region join
    builds and the noiseless solver's interpolation subsets, node_budget
    the noiseless cover search.
    """

    d_max: int = 3
    n_max: int = 3
    restarts: int = 10
    seed: int = 0
    tol: Tolerances = DEFAULT_TOLERANCES
    brute_budget: int = 2_000_000
    candidate_budget: int = 2_000_000
    node_budget: int = 1_000_000

    def __post_init__(self):
        for name in ("d_max", "n_max", "restarts", "brute_budget",
                     "candidate_budget", "node_budget"):
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
    best = None
    examined = 0
    for q0 in _canonical_label_arrays(data.N, n):
        examined += 1
        w = _fit_array(x, y, q0, n, loss)
        c = _cost_arrays(x, y, w, q0, loss)
        key = tuple(int(v) for v in q0)
        if best is None or (c, key) < (best[0], best[1]):
            best = (c, key, w)
    cost, key, w = best
    _, ties = _assign_arrays(x, y, w, loss, tol.tie_tol)
    labeling = Labeling(np.array(key, dtype=np.int64) + 1,
                        tie_set=(ties + 1).tolist())
    return SolveReport(method="brute", cost=cost, models=ModelSet(w),
                       labeling=labeling, candidates_examined=examined,
                       elapsed=time.perf_counter() - t0, status="optimal")


# ---------------------------------------------------------------------------
# Exact enumeration


class CandidateStream:
    """Deterministic candidate labelings for the exact solver.

    One pool of pairwise patterns serves every mode pair: each is the
    elementwise product of a dichotomy of the lifted points (deciding which
    of the two modes has the smaller residual on each side of the midpoint
    hyperplane) and a dichotomy of the regressors (the difference
    hyperplane), kept in the boolean (P, N) pair_products as "first mode
    wins" (the signs agree). A region join peels the modes off in order:
    mode 0 takes the AND of n-1 pool rows, mode 1 the AND of n-2 pool rows
    on the points still unlabeled, and so on; the last mode takes the rest.
    At n = 3 the candidates are where(R, 0, where(c, 1, 2)) over the
    distinct regions R = a & b and the pool rows c. Building the stream
    runs the join; iterating yields one 0-based (N,) row per distinct
    canonical candidate, in order of first appearance.

    Both dichotomy sets are closed under negation, so the products are the
    rows with +1 at the first live point and their live negations. At
    n = 2 a product and its negation give the same labeling, so the pool is
    that half alone: every where(p, 0, 1) has mode 0 at the first point
    (dead, or the first live one), so it is canonical, and the rows are
    distinct, with no dedupe or canonicalization. A live negation differs
    from the full negation only on the dead points, which it gives to the
    other mode; a dead point has the same residual under every mode, so
    those dropped labelings tie on cost with kept ones. At n >= 3 the pool
    holds both halves, sorted as one dedupe of all products would give.

    The candidates contain an optimal labeling on any data, with no
    general-position assumption. The dichotomy pools are exact: they hold
    every strict dichotomy of the live points (those with x_i != 0).
    Perturbing an optimal model set generically keeps an optimal assignment
    (a tie-break of the optimum's), makes every pair product a product of
    strict dichotomies and orders the residuals at each live point
    strictly. Its labeling then peels: a point is in mode 0 exactly where
    mode 0 beats every other mode, the AND of its n-1 pair products; a
    point outside mode 0 is in mode 1 exactly where mode 1 beats modes
    2..n-1, since its winner is not mode 0; and so on. So that labeling is
    one of the join's rows.

    combinations_examined is P ** (n(n-1)/2), the classifier combinations
    the candidates cover; with the half pool it halves at n = 2.
    candidate_budget bounds the rows each step of the join builds, P at
    n = 2, the P**2 region pairs and then the |R| * P completions at n = 3;
    the constructor refuses a step over it.
    """

    # the join has no vote to tie; kept for the benchmark's traced stream
    tie_truncations = 0

    def __init__(self, data: Dataset, n: int, cfg: SolverConfig | None = None):
        cfg = cfg or SolverConfig()
        if n < 1:
            raise ValueError("need n >= 1")
        if data.d > cfg.d_max or n > cfg.n_max:
            raise CapsExceededError(
                f"enumeration capped at d <= {cfg.d_max}, n <= {cfg.n_max}; "
                f"got d={data.d}, n={n}")
        self.data = data
        self.n = n
        N = data.N

        # a point with x_i = 0 has the same residual under every mode: it
        # moves no fit, so every pool row gives it to the first mode
        live = np.linalg.norm(data.x, axis=1) > cfg.tol.sign_tol
        pool = np.ones((1, N), dtype=bool)
        if n > 1 and live.any():
            # G and H are closed under negation: keep their rows with +1 at
            # the first live point, whose products are +1 there too
            gs = enumerate_linear_dichotomies(data.lifted()[live], cfg.tol).signs > 0
            hs = enumerate_linear_dichotomies(data.x[live], cfg.tol).signs > 0
            gs, hs = gs[gs[:, 0]], hs[hs[:, 0]]
            pool = np.ones((len(gs) * len(hs), N), dtype=bool)
            pool[:, live] = (gs[:, None, :] == hs[None, :, :]).reshape(
                len(pool), -1)
            pool = pool[unique_rows(pool)]
        if n > 2:       # the join orders the modes, so it needs both signs
            negated = pool.copy()
            negated[:, live] = ~pool[:, live]
            pool = np.vstack([pool, negated])
            pool = pool[unique_rows(pool)]
        self.pair_products = pool
        self.combinations_examined = len(pool) ** (n * (n - 1) // 2)

        def every(left, right):     # row pairs, broadcast, within the budget
            count = len(left) * len(right)
            if count > cfg.candidate_budget:
                raise CapsExceededError(
                    f"{count} classifier combinations exceed the budget "
                    f"{cfg.candidate_budget}")
            return left[:, None], right[None]

        # ands[t]: the distinct ANDs of t + 1 pool rows
        ands = [pool]
        for _ in range(n - 2):
            a, b = every(ands[-1], pool)
            ands.append(_distinct((a & b).reshape(-1, N)))
        labels = np.full((1, N), n - 1, dtype=np.int8)      # not yet peeled
        for j in range(n - 1):
            q, region = every(labels, ands[n - 2 - j])
            labels = np.where(region & (q == n - 1), j, q).reshape(-1, N)
            if n > 2:
                labels = _distinct(labels)
        # at n <= 2 every row has mode 0 at the first point, which is dead or
        # the first live one: the distinct pool rows are canonical labelings
        self.labels = _distinct(_canonicalize_arrays(labels)) if n > 2 else labels

    def __iter__(self):
        yield from self.labels


def _distinct(rows):
    """The distinct rows of a boolean or 0-based label (K, N) array, in order
    of first occurrence."""
    keys = rows if rows.dtype == bool else \
        (rows[:, :, None] == np.arange(rows.max() + 1)).reshape(len(rows), -1)
    return rows[np.sort(unique_rows(keys))]


def _squared_scores(x, y, member):
    """Squared-loss cost of each candidate under its per-mode fit.

    member is the (C, n, N) mode membership of C candidates. The fit follows
    _squared_fit: the normal equations where their solve is accurate, the
    ridge solve where a mode's Gram matrix is singular or has fewer than d
    points, and w = 0 for empty modes.
    """
    N, d = x.shape
    m = member.astype(float)
    gram = (m @ (x[:, :, None] * x[:, None, :]).reshape(N, d * d)).reshape(
        member.shape[:2] + (d, d))                       # (C, n, d, d)
    rhs = m @ (x * y[:, None])                           # (C, n, d)
    k = member.sum(axis=2)
    w = np.zeros(rhs.shape)
    # slogdet shares solve's LU, so a zero sign is exactly solve's singularity
    plain = (k >= d) & (np.linalg.slogdet(gram)[0] != 0)
    if plain.any():
        w[plain] = np.linalg.solve(gram[plain], rhs[plain][..., None])[..., 0]
    err = np.abs(np.einsum("cjik,cjk->cji", gram, w) - rhs)
    plain &= np.all(err <= 1e-12 + 1e-8 * np.abs(rhs), axis=2)
    ridge = (k > 0) & ~plain
    if ridge.any():
        w[ridge] = np.linalg.solve(gram[ridge] + _RIDGE * np.eye(d),
                                   rhs[ridge][..., None])[..., 0]
    pred = (member * (w @ x.T)).sum(axis=1)              # (C, N)
    return np.mean(np.square(y - pred), axis=1)


def _interpolants(x, y):
    """Absolute residuals (S, N) of every interpolant in _absolute_fit's pool."""
    N, d = x.shape
    return np.concatenate([np.abs(y - _subset_interpolants(x, y, subsets) @ x.T)
                           for subsets in _interpolation_pool(N, d)])


def _absolute_scores(member, resid):
    """Absolute-loss cost of each candidate under its per-mode fit.

    Every interpolant is a feasible model for every mode, and the pool holds
    an exact L1 fit of each mode, so the pool's minimum is that fit's total.
    """
    totals = member.astype(float) @ resid.T              # (C, n, S)
    return totals.min(axis=2).sum(axis=1) / member.shape[2]


def _candidate_scores(x, y, labels, n: int, loss: LossModel) -> np.ndarray:
    """Cost of fitting each row of the (C, N) 0-based label array.

    Equals _cost_arrays(x, y, _fit_array(x, y, q0, n, loss), q0, loss) for
    every row q0 up to rounding. Rows are scored _SCORE_CHUNK at a time.
    """
    if loss.kind == "absolute":
        resid = _interpolants(x, y)
    scores = np.empty(len(labels))
    for lo in range(0, len(labels), _SCORE_CHUNK):
        q = labels[lo:lo + _SCORE_CHUNK]
        member = q[:, None, :] == np.arange(n)[:, None]  # (C, n, N)
        if loss.kind == "squared":
            scores[lo:lo + len(q)] = _squared_scores(x, y, member)
        else:
            scores[lo:lo + len(q)] = _absolute_scores(member, resid)
    return scores


def enumeration_solve(data: Dataset, n: int, loss: LossModel,
                      cfg: SolverConfig | None = None) -> SolveReport:
    """Exact solver: fit every candidate labeling and keep the best.

    The candidates contain a globally optimal labeling, so no refinement is
    needed. All candidates are scored in one batched pass; those within
    zero_tol of the best score are re-fit with the per-mode routine, whose
    cost is reported. Ties on cost break toward the lexicographically
    smallest canonical labeling, so the report is deterministic.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    stream = CandidateStream(data, n, cfg)
    labels = np.array(list(stream))
    x, y = data.x, data.y
    scores = _candidate_scores(x, y, labels, n, loss)
    best = None
    for q0 in labels[scores <= scores.min() + cfg.tol.zero_tol]:
        w = _fit_array(x, y, q0, n, loss)
        c = _cost_arrays(x, y, w, q0, loss)
        key = tuple(q0.tolist())
        if best is None or (c, key) < (best[0], best[1]):
            best = (c, key, w)
    cost, key, w = best
    _, ties = _assign_arrays(x, y, w, loss, cfg.tol.tie_tol)
    labeling = Labeling(np.array(key, dtype=np.int64) + 1,
                        tie_set=(ties + 1).tolist())
    return SolveReport(method="enum", cost=cost, models=ModelSet(w),
                       labeling=labeling,
                       candidates_examined=stream.combinations_examined,
                       elapsed=time.perf_counter() - t0, status="optimal")


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
        q0, ties = _assign_arrays(x, y, w, SQUARED, cfg.tol.tie_tol)
        q_c, w_c = _canonicalize_arrays(q0, w)
        cost = _cost_arrays(x, y, w_c, q_c, SQUARED)
        labeling = Labeling(q_c + 1, tie_set=(ties + 1).tolist())
        return SolveReport(method="noiseless", cost=cost, models=ModelSet(w_c),
                           labeling=labeling, candidates_examined=len(subsets),
                           elapsed=time.perf_counter() - t0, status=status)

    if not len(order):
        return finish([], "infeasible")

    sizes = fit_matrix.sum(axis=1)
    max_size = int(sizes.max())
    by_point = [np.flatnonzero(fit_matrix[:, i]) for i in range(N)]
    nodes = 0

    def search(uncovered, modes_left):
        nonlocal nodes
        nodes += 1
        if nodes > cfg.node_budget:
            raise CapsExceededError(
                f"noiseless cover search exceeded {cfg.node_budget} nodes")
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
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        if N >= n * d:
            idx = rng.choice(N, size=n * d, replace=False).reshape(n, d)
            w0 = _subset_interpolants(x, y, idx)
        else:
            w0 = rng.standard_normal((n, d))
        res = refine_alternate(data, ModelSet(w0), loss, tol)
        q_c, w_c = _canonicalize_arrays(res.labeling.q - 1, res.models.w)
        cost = _cost_arrays(x, y, w_c, q_c, loss)
        key = tuple(int(v) for v in q_c)
        if best is None or (cost, key) < (best[0], best[1]):
            best = (cost, key, w_c, res.labeling.tie_set)
    cost, key, w, tie_set = best
    labeling = Labeling(np.array(key, dtype=np.int64) + 1, tie_set=tie_set)
    return SolveReport(method="altmin", cost=cost, models=ModelSet(w),
                       labeling=labeling, candidates_examined=restarts,
                       elapsed=time.perf_counter() - t0, status="heuristic")


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
