"""Solvers for switching linear regression.

Four methods with different guarantees:

* brute_force_solve: exact, enumerates labelings, exponential in N.
* enumeration_solve: exact on any data, polynomial in N for fixed d and n.
  In some optimal labeling every mode's point set is a region: an AND of
  n-1 products of linear dichotomies of the lifted points (x_i, y_i) and of
  the x_i themselves. The dichotomies are enumerated exactly, with no
  general-position assumption, so fitting each region once and taking the
  min-cost partition of the data into n regions is globally optimal; only
  the partitions within rounding and ZERO_TOL of it are re-fit.
* noiseless_solve: exact for data admitting a zero-error fit; reconstructs
  each mode from d interpolation points.
* altmin_solve: seeded alternating-minimization baseline, local minima and
  all, for contrast.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import (
    SQUARED,
    Dataset,
    Labeling,
    LossModel,
    ModelSet,
    ZERO_TOL,
    _assign_arrays,
    _canonicalize_arrays,
    _cost_arrays,
)
# no solver calls check_general_position; the benchmark's tracer wraps it by
# name on this module
from .geometry import (_combination_rows, _packed_keys, _running_unique,
                       check_general_position, enumerate_linear_dichotomies,
                       unique_rows)

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

_MAX_REFINE_ROUNDS = 1000
# The region scorer solves normal equations only below this certified
# condition number, where half the digits survive the squaring, and
# bounds its totals' rounding with this constant (_squared_totals,
# _region_costs)
_GRAM_COND = 1e8
_ROUNDING = 8
# Regions fitted per batch by enumeration_solve, and interpolation subsets
# per chunk of _interpolants. It bounds the scorer's (chunk, N) and, under
# absolute loss, (chunk, S) arrays, and the fit's (chunk, k) residuals.
_SCORE_CHUNK = 1024

SOLVER_METHODS = ("brute", "enum", "noiseless", "altmin")


class CapsExceededError(RuntimeError):
    """A solver refused to run because a budget was exceeded."""


@dataclass(frozen=True)
class SolverConfig:
    """The budget and heuristic settings shared by the solvers.

    restarts and seed drive the heuristic. candidate_budget is the only
    limit on the exact solvers' work: brute force's n^N raw labelings, the
    rows each step of CandidateStream's pool product and region search
    builds, and the noiseless solver's interpolation subsets and cover
    search nodes. No setting moves a margin: the zero margin is ZERO_TOL.
    """

    restarts: int = 10
    seed: int = 0
    candidate_budget: int = 2_000_000

    # not a field: kept, read-only, for the benchmark, which reads
    # SolverConfig().tol.zero_tol (as CandidateStream.tie_truncations is kept
    # for its traced stream); it goes when the benchmark stops reading it
    tol = namedtuple("ZeroMargin", "zero_tol")(ZERO_TOL)

    def __post_init__(self):
        for name in ("restarts", "seed", "candidate_budget"):
            value = getattr(self, name)
            # type(True) is bool, so True is refused too
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("restarts", "candidate_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


def _check_budget(count: int, what: str, cfg: SolverConfig,
                  shown: str | None = None) -> None:
    """Refuse count units of exact-solver work over cfg.candidate_budget;
    the message names the count as shown, if given."""
    if count > cfg.candidate_budget:
        raise CapsExceededError(
            f"{count if shown is None else shown} {what} exceed the budget "
            f"{cfg.candidate_budget}")


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


def _lstsq(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of each system in the stacks a
    (..., k, d) and b (..., k): the batched pinv, with np.linalg.lstsq's
    cutoff, singular values at most max(k, d) * eps of the largest cut."""
    k, d = a.shape[-2:]
    return (np.linalg.pinv(a, rcond=max(k, d) * np.finfo(float).eps)
            @ b[..., None])[..., 0]


def _subset_interpolants(x, y, subsets) -> np.ndarray:
    """Minimum-norm interpolant of each row of the (S, s) index array
    subsets, s <= d, as an (S, d) array; a rank-deficient subset gets its
    minimum-norm least-squares solution."""
    return _lstsq(x[subsets], y[subsets])


def _interpolants(x, y):
    """(subsets, interpolants) of every subset of at most d of the points,
    in chunks of at most _SCORE_CHUNK subsets: the d-subsets first, then
    smaller ones, each size in lexicographic order.

    Each interpolant depends on its own subset's rows only, so a subset
    gets the same interpolant, bit for bit, in whichever chunk it lands.
    """
    N, d = x.shape
    for s in range(d, 0, -1):
        subsets = _combination_rows(N, s)
        for lo in range(0, len(subsets), _SCORE_CHUNK):
            chunk = subsets[lo:lo + _SCORE_CHUNK]
            yield chunk, _subset_interpolants(x, y, chunk)


def _absolute_fit(x: np.ndarray, y: np.ndarray, pool) -> np.ndarray:
    """Exact least-absolute-deviations fit over the pool's interpolants.

    Some optimal L1 fit is a basic solution of the LP: it interpolates
    rank(x) points with independent regressors, and the minimum-norm
    interpolant of those points predicts the same on every point. So the
    best interpolant of a subset of at most d points is an exact L1 fit,
    whatever the rank of x or the number of points. pool yields arrays,
    possibly empty, of the interpolants of every subset of at most d of
    x's points, in _interpolants' order: _interpolants over x's own points,
    or the chunks of a table over more points, each filtered to the subsets
    inside x's. A row's total does not depend on the chunk it comes in, and
    ties keep the first row in pool order, so the fit does not depend on
    how the pool is chunked.
    """
    best_total = np.inf
    best_w = np.zeros(x.shape[1])
    for ws in pool:
        if not len(ws):
            continue
        totals = np.abs(y - ws @ x.T).sum(axis=1)
        i = int(np.argmin(totals))
        if totals[i] < best_total:
            best_total = totals[i]
            best_w = ws[i]
    return best_w


def solve_mode_regression(x, y, loss: LossModel) -> np.ndarray:
    """Best single linear model for one mode's points under the loss.

    Accepts an empty subset (returns the zero vector) and rank-deficient
    or small subsets. Squared loss takes np.linalg.lstsq's minimum-norm
    least-squares solution, from an SVD of x itself, never from the normal
    equations, which square its condition number. Absolute loss takes the
    best interpolant of at most d points, an exact L1 fit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be (k, d), got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError(f"y must be ({x.shape[0]},), got shape {y.shape}")
    if loss.kind == "squared":
        return np.linalg.lstsq(x, y, rcond=None)[0]
    return _absolute_fit(x, y, (ws for _, ws in _interpolants(x, y)))


def _table(x, y, loss: LossModel):
    """A solve's interpolant table: list(_interpolants(x, y)) over all the
    points under absolute loss, None under squared loss."""
    return list(_interpolants(x, y)) if loss.kind == "absolute" else None


def _mode_fit(x, y, loss: LossModel, table=None):
    """solve_mode_regression(x[mask], y[mask], loss), bit for bit, as a
    function of the boolean mask; an empty mask gives the zero vector.

    With no table, each call goes to solve_mode_regression, looked up on
    this module. Under absolute loss, table is _table(x, y, loss), and a
    mode's pool is the chunks' interpolants of the subsets inside it: the
    same interpolants in the same order, so the same fit, without its own
    pinv of each subset.
    """
    if table is None:
        return lambda mask: solve_mode_regression(x[mask], y[mask], loss)
    return lambda mask: _absolute_fit(x[mask], y[mask], (
        ws[mask[s].all(axis=1)] for s, ws in table))


def _fit_array(fit, q0, n) -> np.ndarray:
    """The (n, d) fits of the modes of the 0-based labels q0, fit(mask)
    each, where fit is a _mode_fit."""
    return np.array([fit(q0 == j) for j in range(n)])


def fit_modes(data: Dataset, labeling: Labeling, n: int, loss: LossModel) -> ModelSet:
    """Fit each mode independently to its assigned points."""
    if labeling.N != data.N:
        raise ValueError(f"labeling covers {labeling.N} points, data has {data.N}")
    if np.any(labeling.q > n):
        raise ValueError(f"label exceeds n={n}")
    return ModelSet(_fit_array(_mode_fit(data.x, data.y, loss),
                               labeling.q - 1, n))


def refine_alternate(data: Dataset, models: ModelSet,
                     loss: LossModel) -> RefineResult:
    """Alternate optimal assignment and per-mode refitting until stable.

    Both half-steps are exact minimizations under either loss, so the
    recorded cost trace is non-increasing up to rounding.
    Stops when the labeling repeats or a full round improves the cost by
    less than ZERO_TOL; the returned labeling is always the optimal
    assignment for the returned models, ties within TIE_TOL going to the
    first mode.
    """
    if models.d != data.d:
        raise ValueError(f"models have d={models.d}, data has d={data.d}")
    x, y = data.x, data.y
    n = models.n
    w = models.w
    fit = _mode_fit(x, y, loss)
    q0, ties = _assign_arrays(x, y, w, loss)
    costs = [_cost_arrays(x, y, w, q0, loss)]
    prev_round = None
    for _ in range(_MAX_REFINE_ROUNDS):
        w = _fit_array(fit, q0, n)
        costs.append(_cost_arrays(x, y, w, q0, loss))
        new_q0, ties = _assign_arrays(x, y, w, loss)
        costs.append(_cost_arrays(x, y, w, new_q0, loss))
        stable = np.array_equal(new_q0, q0)
        q0 = new_q0
        if stable:
            break
        if prev_round is not None and prev_round - costs[-1] < ZERO_TOL:
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
    label row, so the choice does not depend on the candidates' order. The
    label key is built only for a cost not above the least so far."""
    best, seen = None, 0
    for q0, w in candidates:
        seen += 1
        cost = _cost_arrays(x, y, w, q0, loss)
        if best is None or cost <= best[0][0]:
            key = (cost, tuple(q0.tolist()))
            if best is None or key < best[0]:
                best = (key, q0, w)
    return best[1], best[2], seen


def _report(method: str, data: Dataset, loss: LossModel, q0, w,
            t0: float, examined: int, status: str) -> SolveReport:
    """The SolveReport of the 0-based labels q0 under the models w, with the
    points where two modes tie within TIE_TOL. Ties are per point, so
    permuting the modes leaves them the same."""
    x, y = data.x, data.y
    _, ties = _assign_arrays(x, y, w, loss)
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
                      cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Exact optimum by trying every labeling (canonical forms only).

    Fixing mode numbers to first-occurrence order drops the n!-fold
    permutation symmetry; the optimum is unchanged. Refuses instances with
    n^N, counted exactly, above cfg.candidate_budget.

    Each labeling is fitted and costed on its own, one mode at a time, and
    shares nothing with the enumeration solver's region scorer
    (_region_costs) or CandidateStream, whose oracle it is. Each mode is
    fitted by _mode_fit: under squared loss by solve_mode_regression, under
    absolute loss from the interpolants of all the points, computed once
    per solve (_table), each mode reading those of the subsets inside it,
    which is solve_mode_regression's fit bit for bit.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t0 = time.perf_counter()
    _check_budget(n ** data.N, "labelings", cfg, shown=f"{n}^{data.N}")
    x, y = data.x, data.y
    fit = _mode_fit(x, y, loss, _table(x, y, loss))
    q0, w, examined = _least(x, y, loss, (
        (q0, _fit_array(fit, q0, n))
        for q0 in _canonical_label_arrays(data.N, n)))
    return _report("brute", data, loss, q0, w, t0, examined, "optimal")


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
    the dead points mode 0) is canonical. At n = 2, with a live point, no
    search runs: the regions are the P half rows, reversed, then their live
    complements, so the partitions are the pairs (j, 2P - 1 - j) for j < P,
    which is what the search finds, in its order.

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
    bounds the rows each step builds, at any d and n: the distinct rows of
    the pool's half, P at n = 2, the P**2 region pairs at n = 3 and the
    partial partitions each extension keeps. The half is built from the
    G x H product a budget's worth of rows at a time, and an extension tests
    its (partial partition, region) pairs in chunks of at most that many.
    The constructor refuses a step over it before building the step's next
    chunk, with the CapsExceededError every exact solver raises.
    """

    # the search has no vote to tie; kept for the benchmark's traced stream
    tie_truncations = 0

    def __init__(self, data: Dataset, n: int, cfg: SolverConfig = SolverConfig()):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        N = data.N

        # a point with x_i = 0 has the same residual under every mode: it
        # moves no fit, so it stays out of the regions. Only an exact zero
        # is dead: the dichotomy enumeration scales any other x_i away
        live = data.x.any(axis=1)
        pool = half = np.ones((1, N), dtype=bool)
        if n > 1 and live.any():
            # G and H are closed under negation: keep their rows with +1 at
            # the first live point, whose products are +1 there too
            gs = enumerate_linear_dichotomies(data.lifted()[live]).signs > 0
            hs = enumerate_linear_dichotomies(data.x[live]).signs > 0
            gs, hs = gs[gs[:, 0]], hs[hs[:, 0]]

            def product(g):
                block = np.ones((len(g) * len(hs), N), dtype=bool)
                block[:, live] = (g[:, None, :] == hs[None, :, :]).reshape(
                    len(block), -1)
                return block

            # the G x H product, a budget's worth of rows at a time, each
            # block deduped into the distinct rows so far
            step = max(1, cfg.candidate_budget // len(hs))
            for half in _running_unique(product(gs[lo:lo + step])
                                        for lo in range(0, len(gs), step)):
                _check_budget(len(half), "classifier combinations", cfg)
            # and the live negations: distinct, as only the half holds the
            # first live point, and in ascending complement keys
            pool = np.vstack([half[::-1], half ^ live])
        self.pair_products = half if n == 2 else pool
        self.combinations_examined = len(self.pair_products) ** (n * (n - 1) // 2)

        regions = pool & live
        for _ in range(n - 2):
            _check_budget(len(regions) * len(pool),
                          "classifier combinations", cfg)
            regions = (regions[:, None] & pool[None]).reshape(-1, N)
            regions = regions[unique_rows(~regions)]
        self.regions = regions
        if n == 2 and live.any():
            # a half row and its live complement are pool rows j and
            # 2P - 1 - j: the search's partitions, read off in its order
            j = np.arange(len(half))
            self.partitions = np.column_stack([j, 2 * len(half) - 1 - j])
        else:
            self.partitions = _partition_search(regions, live, n, cfg)

    def __iter__(self):
        yield from self.partitions


def _partition_search(regions, live, n: int, cfg: SolverConfig) -> np.ndarray:
    """CandidateStream's (K, n) partitions of the live points into n of the
    regions, each member holding the first live point the ones before it
    leave; the regions come sorted by the packed keys of their
    complements."""
    N = len(live)

    def first(rows):            # each row's first point, N if it has none
        return np.where(rows.any(axis=1), rows.argmax(axis=1), N)

    # the complement-key order sorts the regions by their first point
    lead = first(regions)
    parts = np.zeros((1, 0), dtype=np.int64)
    union = np.zeros((1, N), dtype=bool)
    for _ in range(n - 1):
        # the next member holds the first live point the others leave: one
        # block of regions, tried against every partial partition, step
        # partials and at most the budget's pair tests at a time
        at = first(live & ~union)
        lo = np.searchsorted(lead, at)
        size = np.searchsorted(lead, at, side="right") - lo
        step = max(1, cfg.candidate_budget // size.max(initial=1))
        grown, unions = [], []
        for rows in np.array_split(np.arange(len(parts)), len(parts) // step + 1):
            row = np.repeat(rows, size[rows])               # j runs each block
            j = lo[row] + np.arange(len(row)) - np.searchsorted(row, row)
            have, add = union[row], regions[j]
            ok = ~(have & add).any(axis=1)
            grown.append(np.column_stack([parts[row[ok]], j[ok]]))
            unions.append(have[ok] | add[ok])
            _check_budget(sum(map(len, grown)), "classifier combinations", cfg)
        parts, union = np.concatenate(grown), np.concatenate(unions)
    # the last member is the rest of the live points, found by its key
    keys = _packed_keys(~regions)
    rest = _packed_keys(union | ~live)
    last = np.minimum(np.searchsorted(keys, rest), len(keys) - 1)
    hit = keys[last] == rest
    return np.column_stack([parts[hit], last[hit]])


def _squared_totals(x, y, member):
    """Squared-loss total of each row of the (K, N) 0/1 float member array
    under its least-squares fit, and a first-order bound on its rounding.

    A row takes its normal equations only where det(G / trace G) certifies
    cond(G) < _GRAM_COND: the eigenvalues of G / trace G are at most 1, so
    their product is at most l_min / l_max. Every other non-empty row takes
    _lstsq on its masked stack, non-members as zero rows; an empty row
    takes w = 0. Each residual is taken as off by at most delta =
    _ROUNDING * eps * (max|y| + |w|_1 * max|x|), times cond(G)'s bound on a
    normal-equation row, so a total over k points is off by at most
    delta * (2 sqrt(k * total) + k * delta). Near-collinear rows can have
    |w| near 1e9, where that is more than ZERO_TOL.
    """
    N, d = x.shape
    gram = (member @ (x[:, :, None] * x[:, None, :]).reshape(N, d * d)).reshape(
        -1, d, d)                                        # (K, d, d)
    rhs = member @ (x * y[:, None])                      # (K, d)
    k = member.sum(axis=1)
    t = np.trace(gram, axis1=1, axis2=2)
    normal = np.flatnonzero((k >= d) & (t > 0))
    det = np.linalg.det(gram[normal] / t[normal, None, None])
    keep = det * _GRAM_COND > 1
    normal, det = normal[keep], det[keep]
    w = np.zeros(rhs.shape)
    w[normal] = np.linalg.solve(gram[normal], rhs[normal][..., None])[..., 0]
    rest = k > 0
    rest[normal] = False
    if rest.any():
        w[rest] = _lstsq(member[rest, :, None] * x, member[rest] * y)
    totals = (member * np.square(y - w @ x.T)).sum(axis=1)
    delta = _ROUNDING * np.finfo(float).eps * (
        np.abs(y).max() + np.abs(w).sum(axis=1) * np.abs(x).max())
    delta[normal] /= det
    return totals, delta * (2 * np.sqrt(k * totals) + k * delta)


def _region_costs(x, y, rows, loss: LossModel, table):
    """Loss total of one mode fitted to each row of the boolean (K, N) rows,
    and a bound on each total's rounding, as two (K,) arrays.

    A total is the loss of the row's optimal fit, so it is that of
    solve_mode_regression(x[row], y[row], loss) up to rounding. Under
    squared loss the bound is _squared_totals'. Under absolute loss every
    interpolant of a subset of at most d of all N points is a feasible
    model, and they include an exact L1 fit of each row, so their least
    total on the row is that fit's. They are read off table, _table(x, y,
    loss), and stacked into one (S, N) residual array. Each residual is off
    by at most delta = _ROUNDING * eps * (max|y| + max_s |w_s|_1 * max|x|),
    the max over every interpolant, so every interpolant's total on a row
    of k points is within k * delta of its exact value, and so is their
    least, whichever interpolant attains it before or after rounding.
    Near-collinear interpolants can have |w| near 1e8, where that is more
    than ZERO_TOL.
    Rows are fitted _SCORE_CHUNK at a time.
    """
    costs, slack = np.empty(len(rows)), np.zeros(len(rows))
    if loss.kind == "absolute":
        ws = np.concatenate([ws for _, ws in table])
        resid = np.abs(y - ws @ x.T)
        slack = rows.sum(axis=1) * _ROUNDING * np.finfo(float).eps * (
            np.abs(y).max() + np.abs(ws).sum(axis=1).max() * np.abs(x).max())
    for lo in range(0, len(rows), _SCORE_CHUNK):
        member = rows[lo:lo + _SCORE_CHUNK].astype(float)
        part = slice(lo, lo + len(member))
        if loss.kind == "squared":
            costs[part], slack[part] = _squared_totals(x, y, member)
        else:
            costs[part] = (member @ resid.T).min(axis=1)
    return costs, slack


def enumeration_solve(data: Dataset, n: int, loss: LossModel,
                      cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Exact solver: the min-cost partition of the data into regions.

    Some optimal labeling is a partition into CandidateStream's regions, so
    no refinement is needed. Every region is fitted once in one batched
    pass, and a partition costs the sum of its members' totals and bounds
    (_region_costs). The partitions whose total less bound is within
    N * ZERO_TOL of the least total plus bound, which include the optimal
    one, become canonical label rows and are re-fit with the per-mode
    routine, whose cost is reported. Under absolute loss the bound of a
    region of k points is k times one residual bound shared by every
    interpolant, and the interpolants of every subset of at most d of the
    points are computed once (_table): the region scorer reads them all,
    and each re-fit mode reads those of the subsets inside it (_mode_fit),
    which gives solve_mode_regression's fit bit for bit. A dead point costs
    the same in every mode; in the first member it gives the smallest of
    those equal-cost labelings. Ties on cost break toward the
    lexicographically smallest canonical labeling, so the report is
    deterministic.
    """
    t0 = time.perf_counter()
    stream = CandidateStream(data, n, cfg)
    parts = np.array(list(stream))
    x, y = data.x, data.y
    table = _table(x, y, loss)
    costs, slack = _region_costs(x, y, stream.regions, loss, table)
    totals, slack = costs[parts].sum(axis=1), slack[parts].sum(axis=1)
    near = parts[totals - slack
                 <= (totals + slack).min() + data.N * ZERO_TOL]
    fit = _mode_fit(x, y, loss, table)
    q0, w, _ = _least(x, y, loss, (
        (q0, _fit_array(fit, q0, n))
        for q0 in stream.regions[near].argmax(axis=1)))
    return _report("enum", data, loss, q0, w, t0,
                   stream.combinations_examined, "optimal")


# ---------------------------------------------------------------------------
# Noiseless exact solver


def noiseless_solve(data: Dataset, n: int,
                    cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Exact solver for data admitting a zero-error switching-linear fit.

    Every mode of a zero-error solution is determined by d of its points, so
    interpolating each d-subset of the data yields a candidate pool that
    must contain all true modes. The solver deduplicates candidates by their
    exact-fit sets and searches for n of them covering every point
    (largest fit set first, branching on the lowest uncovered point). A
    found cover is verified by assignment cost <= ZERO_TOL; if none exists
    the best greedy collection is reported with status infeasible, meaning
    no exact fit was certified. cfg.candidate_budget bounds both the
    d-subsets and the nodes of the cover search.
    """
    t0 = time.perf_counter()
    if n < 1:
        raise ValueError("need n >= 1")
    x, y = data.x, data.y
    N, d = data.N, data.d
    if N < d:
        raise ValueError(f"need at least d={d} points, got N={N}")
    _check_budget(comb(N, d), "interpolation subsets", cfg)

    subsets = _combination_rows(N, d)
    ws = _subset_interpolants(x, y, subsets)         # (S, d)
    point_tol = ZERO_TOL * (1.0 + np.abs(y))
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
        q0, _ = _assign_arrays(x, y, w, SQUARED)
        return _report("noiseless", data, SQUARED,
                       *_canonicalize_arrays(q0, w), t0, len(subsets),
                       status)

    if not len(order):
        return finish([], "infeasible")

    sizes = fit_matrix.sum(axis=1)
    max_size = int(sizes.max())
    by_point = [np.flatnonzero(fit_matrix[:, i]) for i in range(N)]
    nodes = 0

    def search(uncovered, modes_left):
        nonlocal nodes
        nodes += 1
        _check_budget(nodes, "cover search nodes", cfg)
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
        if report.cost <= ZERO_TOL:
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


def altmin_solve(data: Dataset, n: int, loss: LossModel,
                 cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Seeded multi-start alternating minimization. No optimality guarantee.

    Each of cfg.restarts restarts interpolates n disjoint random d-subsets
    for the initial models (falling back to Gaussian parameters when
    N < n d), then refines. Deterministic for a fixed cfg.seed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t0 = time.perf_counter()
    x, y = data.x, data.y
    N, d = data.N, data.d

    def restart(r):
        rng = np.random.default_rng([cfg.seed, r])
        if N >= n * d:
            idx = rng.choice(N, size=n * d, replace=False).reshape(n, d)
            w0 = _subset_interpolants(x, y, idx)
        else:
            w0 = rng.standard_normal((n, d))
        models, labeling = refine_alternate(data, ModelSet(w0), loss)
        return _canonicalize_arrays(labeling.q - 1, models.w)

    q0, w, examined = _least(x, y, loss, map(restart, range(cfg.restarts)))
    return _report("altmin", data, loss, q0, w, t0, examined, "heuristic")


def solve_instance(data: Dataset, n: int, loss: LossModel, method: str,
                   cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Dispatch to a solver by method name. The noiseless solver takes no
    loss: it reports squared-loss cost."""
    if method == "brute":
        return brute_force_solve(data, n, loss, cfg)
    if method == "enum":
        return enumeration_solve(data, n, loss, cfg)
    if method == "noiseless":
        return noiseless_solve(data, n, cfg)
    if method == "altmin":
        return altmin_solve(data, n, loss, cfg)
    raise ValueError(f"unknown method {method!r} (expected one of {SOLVER_METHODS})")
