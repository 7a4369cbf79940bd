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
from numpy.linalg import _umath_linalg

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
# Regions per batch of enumeration_solve's scorer, label rows per costing of
# _least, subsets per _svd_lstsq batch of _interpolants, interpolants per
# slice of noiseless_solve's fit check, the masks of a _size_batches batch
# times their width (k points, or P_k pool rows under absolute loss),
# pool rows per slice of _fit_masks' absolute-loss pools, and mode masks
# per _refine stack of altmin_solve (n per restart):
# it bounds their (chunk, N), (chunk, S), (chunk, n, d), SVD factor,
# (chunk, k) and (chunk, d) arrays.
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
    it was computed for, bit for bit: every solver ends in one _least call,
    which costs its candidates as one stack (the noiseless solver's a stack
    of one) and builds the report of the least. labeling is canonical
    (modes numbered by first occurrence). candidates_examined counts
    method-specific units: labelings for brute force, the P ** (n(n-1)/2)
    classifier combinations the candidates cover for enumeration,
    interpolation systems for the noiseless solver, restarts for the
    heuristic, which refines them all as one stack (_refine).
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


def _svd_failed(err, flag):
    """np.linalg.lstsq's error, called by numpy on the gufunc's invalid
    flag, which it sets when gelsd's SVD does not converge."""
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


@np.errstate(call=_svd_failed, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def _lstsq(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of each system in the stacks
    a (..., k, d), b (..., k), a (..., d) array whose rows are
    np.linalg.lstsq(a_i, b_i, rcond=None)'s bit for bit: the one system
    a (k, d), b (k,) is a stack of one. Each system takes its own call of
    the gufunc lstsq calls (LAPACK's gelsd in numpy's _umath_linalg), with
    lstsq's cutoff, in lstsq's float64 loop, which solve_mode_regression's
    float64 stacks select without naming it, and the whole stack runs in
    one error state, lstsq's, which raises its LinAlgError when gelsd's SVD
    does not converge; k = 0 gives zero solutions, as lstsq does, without a
    call. So a system costs its gelsd call and little more: no lstsq
    wrapper and no error state of its own. A row whose answer is not
    finite (a subnormal row's 1 / 1e-310) is solved again by _svd_lstsq,
    which drops the directions whose coefficient is not a float; one
    isfinite checks the stack."""
    k, d = a.shape[-2:]
    if not a.size:
        return np.zeros(a.shape[:-2] + (d,))
    cutoff = max(k, d) * 2.0 ** -52             # lstsq's, eps being 2^-52
    w = np.array([_umath_linalg.lstsq(ai, bi, cutoff)[0]
                  for ai, bi in zip(a.reshape(-1, k, d), b.reshape(-1, k, 1))]
                 ).reshape(a.shape[:-2] + (d,))
    finite = np.isfinite(w)
    if not finite.all():
        redo = ~finite.all(axis=-1)
        w[redo] = _svd_lstsq(a[redo], b[redo])
    return w


def _svd_lstsq(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of each system in the stacks
    a (..., k, d), b (..., k) from one batched SVD, by lstsq's method:
    V (U^T b / s) from a's thin SVD with singular values at most
    max(k, d) * eps of the largest cut, backward stable, unlike a
    pseudo-inverse formed first. A coefficient U^T b / s that is not a
    float (a subnormal row's 1 / 1e-310) is set to 0, as a cut one is, so
    the solution is the least-squares one over the directions whose
    coefficient is finite, and the stack warns of nothing. _interpolants,
    altmin's starts and _squared_totals' rows past the normal equations
    solve their stacks here, and _lstsq its rows that gelsd took past the
    float range."""
    k, d = a.shape[-2:]
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > max(k, d) * 2.0 ** -52 * s[..., :1]
    with np.errstate(over="ignore", divide="ignore", under="ignore",
                     invalid="ignore"):
        c = np.divide((b[..., None, :] @ u)[..., 0, :], s,
                      out=np.zeros(s.shape), where=keep)
        c[~np.isfinite(c)] = 0
        return (c[..., None, :] @ vt)[..., 0, :]


def _interpolants(x, y, sizes=None):
    """(subsets, interpolants) of every subset of the N points of each size
    in sizes (default d down to 1), as two (S, d) arrays: each size in
    lexicographic order, a subset's row padded with N past its size. Each
    size is solved _SCORE_CHUNK subsets at a time; an interpolant depends on
    its own subset's rows only, so it is the same, bit for bit, in the table
    of any superset of its points or of any sizes listing its own.
    """
    N, d = x.shape
    blocks = [_combination_rows(N, s)
              for s in (range(d, 0, -1) if sizes is None else sizes)]
    subsets = np.full((sum(map(len, blocks)), d), N)
    ws = np.empty(subsets.shape)
    at = 0
    for block in blocks:
        for lo in range(0, len(block), _SCORE_CHUNK):
            chunk = block[lo:lo + _SCORE_CHUNK]
            subsets[at:at + len(chunk), :chunk.shape[1]] = chunk
            ws[at:at + len(chunk)] = _svd_lstsq(x[chunk], y[chunk])
            at += len(chunk)
    return subsets, ws


def solve_mode_regression(x, y, loss: LossModel) -> np.ndarray:
    """Best single linear model for one mode's points under the loss.

    Accepts an empty subset (returns the zero vector) and rank-deficient
    or small subsets. Squared loss takes _lstsq's minimum-norm
    least-squares solution, from an SVD of x itself, never from the normal
    equations, which square its condition number; it also takes a stack
    of B modes of k points each, x (B, k, d) and y (B, k), and returns
    their (B, d) fits, each that of its own mode bit for bit, which is how
    _fit_masks passes it a mask size at a time. Absolute loss takes
    _fit_masks' fit of the one mask of all the points from their table,
    the interpolants of every subset of at most d of them (_interpolants):
    the same rule, in the same function, as every solver's absolute-loss
    fit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 and (x.ndim != 3 or loss.kind != "squared"):
        raise ValueError(f"x must be (k, d), or (B, k, d) under squared "
                         f"loss, got shape {x.shape}")
    if y.shape != x.shape[:-1]:
        raise ValueError(f"y must be {x.shape[:-1]}, got shape {y.shape}")
    if loss.kind == "squared":
        return _lstsq(x, y)
    return _fit_masks(x, y, loss, np.ones((1, len(y)), dtype=bool),
                      _interpolants(x, y))[0]


def _table(x, y, loss: LossModel):
    """The solve's table, _interpolants(x, y), under absolute loss only."""
    return _interpolants(x, y) if loss.kind == "absolute" else None


def _size_batches(masks, width):
    """(batch, idx) for the non-empty masks of the boolean (M, N) stack, by
    ascending point count k: each size's masks, in order, _SCORE_CHUNK //
    width(k) at a time (at least one), as the batch's rows of masks and the
    (B, k) indices of their points. An empty mask is in no batch. The
    masks are sorted by size once, stably, and their points gathered in
    that order in one pass, so a batch is two slices."""
    size = masks.sum(axis=1)
    order = size.argsort(kind="stable")
    points = masks[order].nonzero()[1]
    counts = np.bincount(size, minlength=1).tolist()
    row, point = counts[0], 0       # the first of a size's rows and points
    for k in filter(counts.__getitem__, range(1, len(counts))):  # 0 left out
        step = max(1, _SCORE_CHUNK // width(k))
        idx = points[point:point + k * counts[k]].reshape(-1, k)
        for lo in range(0, counts[k], step):
            yield order[row + lo:row + min(lo + step, counts[k])], idx[lo:lo + step]
        row, point = row + counts[k], point + k * counts[k]


def _fit_masks(x, y, loss: LossModel, masks, table) -> np.ndarray:
    """The fits of the boolean (M, N) stack of masks under the loss, an
    (M, d) array whose row r is solve_mode_regression(x[mask_r], y[mask_r],
    loss) bit for bit. table is _table(x, y, loss): None, under squared
    loss, or the interpolant table. Every fit goes through it:
    brute_force_solve, enumeration_solve and fit_modes once per call,
    _refine once per round, for refine_alternate and for altmin_solve, all
    its running restarts at once, and solve_mode_regression's absolute-loss
    fit, a stack of one mask on its own points' table.

    Both losses take one batching policy, _size_batches: the masks of k
    points are fitted together, a batch of at most _SCORE_CHUNK // width
    of them (at least one) at a time, where width is what a mask of k
    points puts in the batch's stacked arrays; an empty mask is in no batch
    and keeps the zero vector, its fit under either loss. Under squared
    loss the width is k: each batch's (B, k, d) and (B, k) stacks go to
    solve_mode_regression, looked up on this module, in one call, in which
    _lstsq gives each mask its own gelsd call, so every distinct mask still
    costs one LAPACK solve. Under absolute loss the width is P_k, the
    number of pool rows of a mask of k points: a mode's pool is the table's
    rows whose subsets lie inside the mask, the padding N counting as
    inside, that is the interpolants of the mode's own points, bit for bit,
    in the order of their own table, so the fit of a mask does not depend
    on the points around it and no subset is solved again. Each
    _SCORE_CHUNK slice of the batch's pools is scored in one stacked
    matmul, and each mask takes the first of its pool with the least total
    (one argmin over all its slices' totals; a row's total does not depend
    on the slice it is computed in), a NaN total counting as +inf, or the
    zero vector where no total is finite. An interpolant keeps only the
    directions whose coefficient is a float (_svd_lstsq), but its sum over
    them can still overflow; a non-finite one totals NaN or inf on any
    point, so it is never picked, and its NaN warns of nothing. Some
    optimal L1 fit is a basic solution of the LP: it interpolates rank(x)
    points with independent regressors, and the minimum-norm interpolant
    of those points predicts the same on every point (Barrodale and
    Roberts, SIAM J. Numer. Anal. 10, 1973). So the best interpolant is an
    exact L1 fit, whatever the rank of the mode or its number of points.
    """
    M, N = masks.shape
    d = x.shape[1]
    fits = np.zeros((M, d))
    if table is None:
        for batch, idx in _size_batches(masks, lambda k: k):
            fits[batch] = solve_mode_regression(x[idx], y[idx], loss)
        return fits
    subsets, ws = table
    padded = np.ones((M, N + 1), dtype=bool)
    padded[:, :N] = masks
    with np.errstate(invalid="ignore"):         # inf * 0 totals a NaN
        for batch, idx in _size_batches(masks, lambda k: sum(       # P_k
                comb(k, s) for s in range(1, min(d, k) + 1))):
            pool = np.nonzero(padded[batch][:, subsets].all(axis=2))[1]
            pool = pool.reshape(len(batch), -1)
            xt, yk = x[idx].transpose(0, 2, 1), y[idx][:, None, :]
            totals = np.concatenate([                           # (B, P_k)
                np.abs(yk - ws[pool[:, lo:lo + _SCORE_CHUNK]] @ xt
                       ).sum(axis=2)
                for lo in range(0, pool.shape[1], _SCORE_CHUNK)], axis=1)
            totals[np.isnan(totals)] = np.inf           # a NaN counts as +inf
            ok = (totals < np.inf).any(axis=1)          # a finite total
            fits[batch[ok]] = ws[pool[ok, totals[ok].argmin(axis=1)]]
    return fits


def fit_modes(data: Dataset, labeling: Labeling, n: int, loss: LossModel) -> ModelSet:
    """Fit each mode independently to its assigned points."""
    if labeling.N != data.N:
        raise ValueError(f"labeling covers {labeling.N} points, data has {data.N}")
    if np.any(labeling.q > n):
        raise ValueError(f"label exceeds n={n}")
    return ModelSet(_fit_masks(data.x, data.y, loss,
                               labeling.q - 1 == np.arange(n)[:, None],
                               _table(data.x, data.y, loss)))


def refine_alternate(data: Dataset, models: ModelSet,
                     loss: LossModel) -> RefineResult:
    """Alternate optimal assignment and per-mode refitting until stable.

    Both half-steps are exact minimizations under either loss, so the
    recorded cost trace is non-increasing up to rounding.
    Stops when the labeling repeats or a full round improves the cost by
    less than ZERO_TOL; the returned labeling is always the optimal
    assignment for the returned models, ties within ZERO_TOL going to the
    first mode. This is _refine on a stack of one, with the data's _table:
    under absolute loss the interpolants are solved once per call, and
    each round's n fits read them.
    """
    if models.d != data.d:
        raise ValueError(f"models have d={models.d}, data has d={data.d}")
    w, q0, ties, costs = _refine(data.x, data.y, models.w[None], loss,
                                 _table(data.x, data.y, loss))
    return RefineResult(ModelSet(w[0]),
                        Labeling(q0[0] + 1,
                                 tie_set=(np.flatnonzero(ties[0]) + 1).tolist()),
                        tuple(costs[0]))


def _refine(x, y, w, loss: LossModel, table):
    """refine_alternate's rule on the (R, n, d) stack of model sets w at
    once: (w, q0, ties, costs), the refined (R, n, d) models, their (R, N)
    optimal labels and (R, N) tie mask, and each row's cost trace, a list
    of floats. table is _table(x, y, loss). Each round takes one stacked
    _assign_arrays call, one _fit_masks call on the (R n, N) mode masks
    with the table and two stacked _cost_arrays calls, on the
    rows still running; a row leaves the stack when its labeling repeats or
    its round gains less than ZERO_TOL. Every row of each call is bit for
    bit its own call, so each row's results are its own stack of one's.
    """
    R, n, d = w.shape
    N = len(y)
    q, ties = _assign_arrays(x, y, w, loss)
    costs = [[c] for c in _cost_arrays(x, y, w, q, loss).tolist()]
    out = np.empty(w.shape), np.empty_like(q), np.empty_like(ties)
    run = np.arange(R)                          # the rows still running
    prev = np.full(R, np.inf)                   # their last round's cost
    for rounds in range(1, _MAX_REFINE_ROUNDS + 1):
        masks = (q[:, None] == np.arange(n)[:, None]).reshape(-1, N)
        w = _fit_masks(x, y, loss, masks, table).reshape(-1, n, d)
        fitted = _cost_arrays(x, y, w, q, loss)
        new_q, ties = _assign_arrays(x, y, w, loss)
        assigned = _cost_arrays(x, y, w, new_q, loss)
        for r, a, b in zip(run.tolist(), fitted.tolist(), assigned.tolist()):
            costs[r] += a, b
        stop = ((new_q == q).all(axis=1) | (prev - assigned < ZERO_TOL)
                | (rounds == _MAX_REFINE_ROUNDS))
        q, prev = new_q, assigned
        if stop.any():
            for kept, now in zip(out, (w, q, ties)):
                kept[run[stop]] = now[stop]
            if stop.all():
                break
            run, q, prev = run[~stop], q[~stop], prev[~stop]
    return (*out, costs)


# ---------------------------------------------------------------------------
# The end of every solve


def _least(method: str, data: Dataset, loss: LossModel, q0s, ws,
           t0: float, examined: int, status: str) -> SolveReport:
    """The end of every solve: the SolveReport of the row with the least
    (cost, labels) of the stacks q0s (K, N) of 0-based labels and ws
    (K, n, d) of models. The rows are costed by _cost_arrays _SCORE_CHUNK
    at a time, each bit for bit as alone, so the report's cost is
    empirical_cost's of its models and labeling. Ties on cost keep the
    lexicographically smallest label row, the first of equal ones, so the
    choice does not depend on the rows' order. The tie set is the points
    where two of the picked models tie within ZERO_TOL: ties are per
    point, so permuting the modes leaves them the same."""
    x, y = data.x, data.y
    costs = np.concatenate([
        _cost_arrays(x, y, ws[lo:lo + _SCORE_CHUNK],
                     q0s[lo:lo + _SCORE_CHUNK], loss)
        for lo in range(0, len(q0s), _SCORE_CHUNK)])
    tied = (costs == costs.min()).nonzero()[0]
    r = tied[0] if len(tied) == 1 else tied[np.lexsort(q0s[tied].T[::-1])[0]]
    ties = _assign_arrays(x, y, ws[r], loss)[1].nonzero()[0] + 1
    return SolveReport(method=method, cost=float(costs[r]),
                       models=ModelSet(ws[r]),
                       labeling=Labeling(q0s[r] + 1, tie_set=ties.tolist()),
                       candidates_examined=examined,
                       elapsed=time.perf_counter() - t0, status=status)


# ---------------------------------------------------------------------------
# Brute force


def _canonical_label_arrays(N: int, n: int) -> np.ndarray:
    """Every labeling of N points with at most n modes numbered by first
    occurrence, as one int8 (L, N) array of 0-based labels: the
    restricted-growth strings (q_1 = 0, each label at most one above the
    largest before it) in lexicographic order, L = sum_{k <= n} S(N, k).
    Built a column at a time: each row is repeated once per label its next
    point may take, the modes it uses and, below n, one new one."""
    q = np.zeros((1, N), dtype=np.int8)
    used = np.ones(1, dtype=np.int64)           # modes each row uses
    for i in range(1, N):
        take = np.minimum(used + 1, n)
        row = np.repeat(np.arange(len(q)), take)
        label = np.arange(len(row)) - np.repeat(np.cumsum(take) - take, take)
        q = q[row]
        q[:, i] = label
        used = np.maximum(used[row], label + 1)
    return q


def brute_force_solve(data: Dataset, n: int, loss: LossModel,
                      cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Exact optimum by trying every labeling (canonical forms only).

    Fixing mode numbers to first-occurrence order drops the n!-fold
    permutation symmetry; the optimum is unchanged. Refuses instances with
    n^N, counted exactly, above cfg.candidate_budget.

    The mode masks of all L canonical labelings (_canonical_label_arrays)
    are taken in one pass, and the distinct ones are fitted once each, in
    one _fit_masks call on their stack (with the _table under absolute
    loss), into rows of d floats: 2^N rows at n >= 2, where every subset,
    the empty one included, is a mode of some labeling, and one at n = 1.
    The labelings and their (L, n, d) fits end in _least, as every
    solver's candidates do. Nothing is shared with the enumeration solver's
    region scorer (_region_costs) or CandidateStream, whose oracle this is.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t0 = time.perf_counter()
    _check_budget(n ** data.N, "labelings", cfg, shown=f"{n}^{data.N}")
    x, y = data.x, data.y
    N = data.N
    labels = _canonical_label_arrays(N, n)
    masks = (labels == np.arange(n)[:, None, None]).reshape(-1, N)  # (n L, N)
    _, first, back = np.unique(_packed_keys(masks), return_index=True,
                               return_inverse=True)
    fits = _fit_masks(x, y, loss, masks[first], _table(x, y, loss))
    return _least("brute", data, loss, labels, fits[back.reshape(n, -1).T],
                  t0, len(labels), "optimal")


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
            pool = np.concatenate([half[::-1], half ^ live])
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
            j = np.arange(len(half))[:, None]
            self.partitions = np.concatenate([j, 2 * len(half) - 1 - j], axis=1)
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
        lo = lead.searchsorted(at)
        size = lead.searchsorted(at, side="right") - lo
        step = max(1, cfg.candidate_budget // size.max(initial=1))
        grown, unions = [], []
        # a partial partition never empties: the empty region closes any
        for p in range(0, len(parts), step):
            rows = np.arange(p, min(p + step, len(parts)))
            row = rows.repeat(size[rows])                   # j runs each block
            j = lo[row] + np.arange(len(row)) - row.searchsorted(row)
            have, add = union[row], regions[j]
            ok = (~(have & add).any(axis=1)).nonzero()[0]
            grown.append(np.concatenate([parts[row[ok]], j[ok, None]], axis=1))
            unions.append(have[ok] | add[ok])
            _check_budget(sum(map(len, grown)), "classifier combinations", cfg)
        parts, union = np.concatenate(grown), np.concatenate(unions)
    # the last member is the rest of the live points, found by its key
    keys = _packed_keys(~regions)
    rest = _packed_keys(union | ~live)
    last = np.minimum(keys.searchsorted(rest), len(keys) - 1)
    hit = (keys[last] == rest).nonzero()[0]
    return np.concatenate([parts[hit], last[hit, None]], axis=1)


def _residual_bound(x, y, w_norm):
    """First-order bound on the rounding of y_i - w . x_i, |w|_1 = w_norm."""
    return _ROUNDING * 2.0 ** -52 * (
        np.abs(y).max() + w_norm * np.abs(x).max())


def _squared_totals(x, y, member):
    """Squared-loss total of each row of the (K, N) 0/1 float member array
    under its least-squares fit, and a first-order bound on its rounding.

    A row takes its normal equations only where det(G / trace G) certifies
    cond(G) < _GRAM_COND: the eigenvalues of G / trace G are at most 1, so
    their product is at most l_min / l_max. Every other non-empty row takes
    _svd_lstsq on its masked stack, non-members as zero rows; an empty row
    takes w = 0. A non-member adds 0 to its row's total, even where its
    square is past the float range. Each residual is off by at most
    delta = _residual_bound, _svd_lstsq being backward stable, times
    cond(G)'s bound on a normal-equation row, so on every row a total over
    k points is off by at most delta * (2 sqrt(k * total) + k * delta).
    Near-collinear rows can have |w| near 1e9, where that is more than
    ZERO_TOL.
    """
    N, d = x.shape
    gram = (member @ (x[:, :, None] * x[:, None, :]).reshape(N, d * d)).reshape(
        -1, d, d)                                        # (K, d, d)
    rhs = member @ (x * y[:, None])                      # (K, d)
    k = member.sum(axis=1)
    t = gram.trace(axis1=1, axis2=2)
    normal = ((k >= d) & (t > 0)).nonzero()[0]
    det = np.linalg.det(gram[normal] / t[normal, None, None])
    keep = det * _GRAM_COND > 1
    normal, det = normal[keep], det[keep]
    w = np.zeros(rhs.shape)
    w[normal] = np.linalg.solve(gram[normal], rhs[normal][..., None])[..., 0]
    rest = k > 0
    rest[normal] = False
    if rest.any():
        w[rest] = _svd_lstsq(member[rest, :, None] * x, member[rest] * y)
    with np.errstate(over="ignore", invalid="ignore"):
        totals = np.where(member > 0, np.square(y - w @ x.T), 0).sum(axis=1)
    delta = _residual_bound(x, y, np.abs(w).sum(axis=1))
    delta[normal] /= det
    return totals, delta * (2 * np.sqrt(k * totals) + k * delta)


def _region_costs(x, y, rows, loss: LossModel, table):
    """Loss total of one mode fitted to each row of the boolean (K, N) rows,
    and a bound on each total's rounding, as two (K,) arrays.

    A total is the loss of the row's optimal fit, so it is that of
    solve_mode_regression(x[row], y[row], loss) up to rounding. Under
    squared loss the bound is _squared_totals'. Under absolute loss the
    interpolants of table, _table(x, y, loss), of every subset of at most d
    of all N points, include an exact L1 fit of each row, so their least
    total on the row, read off one (S, N) residual array, is that fit's.
    Only the finite interpolants are read: a non-finite one totals NaN or
    inf on every non-empty row, so it is never the least, as in
    _fit_masks. Each residual is off by at most delta =
    _residual_bound at the largest finite |w_s|_1, so every interpolant's
    total on a row of k points is within k * delta of its exact value, and
    so is their least, whichever interpolant attains it before or after
    rounding. Near-collinear interpolants can have |w| near 1e8, where that
    is more than ZERO_TOL. Rows are fitted _SCORE_CHUNK at a time.
    """
    costs, slack = np.empty(len(rows)), np.zeros(len(rows))
    if loss.kind == "absolute":
        ws = table[1][np.isfinite(table[1]).all(axis=1)]
        resid = np.abs(y - ws @ x.T)
        slack = rows.sum(axis=1) * _residual_bound(
            x, y, np.abs(ws).sum(axis=1).max())
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
    one, become canonical label rows; the modes of all K of them are re-fit
    in one _fit_masks call on their (K n, N) mask stack, which gives
    solve_mode_regression's fits bit for bit, and the (K, N) labels and
    (K, n, d) fits go to _least as they are. A NaN partition total or bound
    (a squared-loss fit past the float range) leaves no partition to
    re-fit, and the solve raises ValueError. Under absolute loss the bound
    of a region of k points is k times one residual bound shared by every
    interpolant, and the interpolants of every subset of at most d of the
    points are computed once (_table): the region scorer reads them all,
    and each re-fit mode reads those of the subsets inside it. A dead point
    costs the same in every mode; in the first member it gives the smallest
    of those equal-cost labelings. Ties on cost break toward the
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
    if not len(near):                   # a NaN total or bound empties it
        raise ValueError("candidate partition costs must be finite")
    labels = stream.regions[near].argmax(axis=1)                # (K, N)
    masks = (labels[:, None] == np.arange(n)[:, None]).reshape(-1, data.N)
    fits = _fit_masks(x, y, loss, masks, table).reshape(-1, n, data.d)
    return _least("enum", data, loss, labels, fits, t0,
                  stream.combinations_examined, "optimal")


# ---------------------------------------------------------------------------
# Noiseless exact solver


def noiseless_solve(data: Dataset, n: int,
                    cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Exact solver for data admitting a zero-error switching-linear fit.

    Every mode of a zero-error solution is determined by d of its points, so
    the interpolants of the d-subsets (_interpolants) are a candidate pool
    that must contain all true modes. The solver deduplicates candidates by
    their exact-fit sets and searches for n of them covering every point
    (largest fit set first, branching on the lowest uncovered point). A
    found cover is verified by assignment cost <= ZERO_TOL; if none exists
    the best greedy collection is reported with status infeasible, meaning
    no exact fit was certified. A candidate is judged by its fit set alone,
    so the pool holds one per distinct fit set of the C(N, d) interpolants,
    at least one, even where no interpolant fits its own subset.
    cfg.candidate_budget bounds both the d-subsets and the nodes of the
    cover search. The chosen models' canonical assignment ends in _least as
    a stack of one. Two known limits: it refuses N < d, and it says
    infeasible when a mode of a zero-cost fit has fewer than d points, as
    x = [[1, 1], [2, 2]], y = [1, 0] at n = 2.
    """
    t0 = time.perf_counter()
    if n < 1:
        raise ValueError("need n >= 1")
    x, y = data.x, data.y
    N, d = data.N, data.d
    if N < d:
        raise ValueError(f"need at least d={d} points, got N={N}")
    _check_budget(comb(N, d), "interpolation subsets", cfg)

    ws = _interpolants(x, y, (d,))[1]
    point_tol = ZERO_TOL * (1.0 + np.abs(y))
    # checked in slices: beside the (S, d) pool only (S, N) booleans are held
    fits = np.empty((len(ws), N), dtype=bool)
    for lo in range(0, len(ws), _SCORE_CHUNK):
        fits[lo:lo + _SCORE_CHUNK] = np.abs(
            y - ws[lo:lo + _SCORE_CHUNK] @ x.T) <= point_tol

    # rows by descending fit size, one per distinct fit set: a row's key
    # depends on that row alone, so fits is packed as it is, unordered
    order = np.argsort(-fits.sum(axis=1), kind="stable")
    order = order[np.sort(np.unique(_packed_keys(fits)[order],
                                    return_index=True)[1])]
    cand_w, fit_matrix = ws[order], fits[order]      # fit_matrix (C, N) boolean
    del fits            # fit_matrix is a copy: free the (S, N) original

    def finish(chosen, status):
        # cost under squared loss; any admissible loss is zero exactly when
        # every residual is zero, so certification is loss-independent
        w = cand_w[chosen + chosen[:1] * (n - len(chosen))]
        q0, w = _canonicalize_arrays(_assign_arrays(x, y, w, SQUARED)[0], w)
        return _least("noiseless", data, SQUARED, q0[None], w[None], t0,
                      len(ws), status)

    max_size = int(fit_matrix[0].sum())      # the rows descend in size
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

    Restart r draws n d points from default_rng([cfg.seed, r]), without
    replacement where N >= n d and with it below, and its initial models are
    the interpolants of their n d-subsets (one _svd_lstsq stack for all
    restarts): n disjoint subsets, or overlapping ones below n d. All restarts
    are refined together, _SCORE_CHUNK // n at a time, by _refine with the
    solve's _table: one _fit_masks call per round fits every mode of every
    restart still running, and under absolute loss the interpolant table
    is solved once per solve, as every absolute-loss fit entry point
    solves it once per call. Each restart's result is bit for bit its own
    refine_alternate's; they are canonicalized and end in _least.
    Deterministic for a fixed cfg.seed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t0 = time.perf_counter()
    x, y = data.x, data.y
    N, d = data.N, data.d
    idx = np.array([np.random.default_rng([cfg.seed, r]).choice(
        N, size=n * d, replace=N < n * d)
        for r in range(cfg.restarts)]).reshape(-1, n, d)
    w0 = _svd_lstsq(x[idx], y[idx])
    table = _table(x, y, loss)
    step = max(1, _SCORE_CHUNK // n)
    ws, q0s = map(np.concatenate, zip(*(
        _refine(x, y, w0[lo:lo + step], loss, table)[:2]
        for lo in range(0, len(w0), step))))
    return _least("altmin", data, loss, *_canonicalize_arrays(q0s, ws), t0,
                  cfg.restarts, "heuristic")


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
