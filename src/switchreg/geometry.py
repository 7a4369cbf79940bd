"""Point-set geometry: linear dichotomy enumeration and general position checks.

A linear dichotomy of points p_1..p_N in R^m is a sign pattern
(sign(h . p_1), ..., sign(h . p_N)) for some normal vector h with no point
exactly on the separating hyperplane {p : h . p = 0}. The patterns are the
cells of the central hyperplane arrangement {h : h . p_i = 0}, and the
enumeration here walks that arrangement's rays: the generic ones in one
batched pass, recursing only into the points on each degenerate ray's
hyperplane. It is exact on any data: repeated, collinear or
coplanar points and N <= m need no special handling and no linear program,
and coordinates of very different magnitudes are scaled away first. The one
tolerance, sign_tol, is a relative distance: a point that close to a
hyperplane counts as on it.
The general-position check is a diagnostic only. An independent
angle-sweep oracle covers m <= 2 for verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "DichotomySet",
    "GeneralPositionReport",
    "check_general_position",
    "enumerate_linear_dichotomies",
    "sweep_dichotomies_oracle",
    "unique_rows",
]

# Relative singular-value threshold of check_general_position.
_RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DichotomySet:
    """Enumeration result: (K, N) signs in {+1, -1}, distinct rows in
    ascending order, and the (K, m) witnesses realizing them row by row."""

    signs: np.ndarray
    witnesses: np.ndarray

    # read by the benchmark's traced enumeration; nothing is ever dropped
    branch_attempts = 0
    branch_dropped = 0

    def __len__(self):
        return len(self.signs)

    def patterns(self) -> frozenset:
        return frozenset(map(tuple, self.signs.tolist()))


@dataclass(frozen=True)
class GeneralPositionReport:
    """Outcome of the affine-independence scan over (m+1)-subsets.

    violations holds 1-based index subsets found on a common hyperplane
    (truncated to the first 64). sampled marks the randomized mode used for
    large N, where only checked_subsets random subsets were examined.
    """

    ok: bool
    violations: tuple = ()
    sampled: bool = False
    checked_subsets: int = 0


def check_general_position(points, *, max_exhaustive: int = 20000,
                           samples: int = 2000) -> GeneralPositionReport:
    """Verify that no m+1 points lie on a common affine hyperplane of R^m.

    Exhaustive over all (m+1)-subsets when their number is at most
    max_exhaustive, otherwise a random sample (seed 0) of subsets is tested
    and the report says so.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, m), got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    N, m = points.shape
    if N < m + 1:
        return GeneralPositionReport(ok=True)

    total = comb(N, m + 1)
    if total <= max_exhaustive:
        subsets = np.array(list(itertools.combinations(range(N), m + 1)))
        sampled = False
    else:
        rng = np.random.default_rng(0)
        subsets = np.array([rng.choice(N, size=m + 1, replace=False)
                            for _ in range(samples)])
        sampled = True

    pts = points[subsets]                          # (K, m+1, m)
    diffs = pts[:, 1:, :] - pts[:, :1, :]          # (K, m, m)
    sv = np.linalg.svd(diffs, compute_uv=False)    # (K, m)
    bad = sv[:, -1] <= _RANK_TOL * np.maximum(1.0, sv[:, 0])
    violations = tuple(tuple(int(i) + 1 for i in subsets[r])
                       for r in np.flatnonzero(bad)[:64])
    return GeneralPositionReport(ok=not violations, violations=violations,
                                 sampled=sampled, checked_subsets=len(subsets))


def _packed_keys(rows) -> np.ndarray:
    """One void key per row of a boolean (K, N) array: its bits packed
    big-endian, so numpy sorts, searches and compares the keys bytewise in
    the rows' order. The rows are padded to whole bytes and packed in one
    flat pass, several times faster than np.packbits along axis 1."""
    K, N = rows.shape
    B = -(-N // 8)
    padded = np.zeros((K, 8 * B), dtype=bool)
    padded[:, :N] = rows
    packed = np.packbits(padded).reshape(K, B)
    return packed.view(np.dtype((np.void, B))).ravel()


def unique_rows(rows) -> np.ndarray:
    """First-occurrence index of each distinct row of a boolean (K, N) array,
    in ascending row order, as np.unique(rows, axis=0, return_index=True).
    Pass +/-1 rows as rows > 0."""
    return np.unique(_packed_keys(rows), return_index=True)[1]


def _rank(points, vt, sign_tol):
    """How many leading rows of vt span every point to within sign_tol.

    Works on stacks: points (..., N, m) and orthonormal rows vt (..., k, m)
    spanning the points. The distance of a point from the span of the first
    j rows is the norm of its coordinates on rows j onwards.
    """
    coords = points @ np.swapaxes(vt, -1, -2)
    tail = np.sqrt(np.cumsum(coords[..., ::-1] ** 2, axis=-1))[..., ::-1]
    return (tail > sign_tol).any(axis=-2).sum(axis=-1)


def _cells(points, sign_tol):
    """(signs, witnesses): every cell of the arrangement {h : h . p_i = 0}.

    The points are unit vectors (up to rounding), so sign_tol is a relative
    distance: a point within sign_tol of a subspace counts as on it, in the
    rank of the set, in the independence of a ray's subset and in the
    on-ray test alike. signs is (K, N) in {+1, -1}, unique rows in ascending
    order; witnesses is (K, m), in the span of the points, with
    sign(points @ w) == signs.

    The cells around a ray are those of its on-ray points projected onto
    the ray's hyperplane. A generic ray has exactly r-1 on-ray points:
    the independent subset whose SVD gave the ray, already in its
    hyperplane. The recursion would reach its N == r case and shatter them,
    each of the 2^(r-1) local patterns witnessed by its min-norm solution,
    which that subset's SVD factors give as well. So every generic ray of a
    level is resolved in one batched pass, with no SVD of its own: one
    stacked SVD of the subsets per level. Only the degenerate rays recurse.
    """
    N = len(points)
    _, _, vt = np.linalg.svd(points, full_matrices=False)
    basis = vt[:_rank(points, vt, sign_tol)]
    q = points @ basis.T                             # (N, r) span coordinates
    r = len(basis)
    if N == r:
        signs = np.array(list(itertools.product((-1, 1), repeat=r)))
        return signs, np.linalg.solve(q, signs.T).T @ basis
    if r == 1:
        g = -1 if q[0, 0] > 0 else 1         # the pattern with -1 at p_1 first
        signs = g * np.where(q[:, 0] > 0, 1, -1)
        return np.array([signs, -signs]), np.array([[g], [-g]]) @ basis

    # every cell touches a ray: the normal to r-1 independent points
    subsets = q[np.array(list(itertools.combinations(range(N), r - 1)))]
    left, sv, right = np.linalg.svd(subsets)
    src = np.flatnonzero(_rank(subsets, right, sign_tol) == r - 1)
    rays = right[src, -1]
    vals = q @ rays.T                                # (N, rays)
    on_ray = np.abs(vals) <= sign_tol
    keep = unique_rows(on_ray.T)                     # one ray per on-ray set
    src, rays = src[keep], rays[keep]
    vals, on_ray = vals[:, keep].T, on_ray[:, keep].T

    # generic rays: their r-1 on-ray points are the independent subset that
    # defined them, so each local pattern's min-norm witness comes from that
    # subset's SVD, orthogonal to the ray
    generic = on_ray.sum(axis=1) == r - 1
    sub = src[generic]
    local = np.array(list(itertools.product((-1, 1), repeat=r - 1)))
    u = (local @ left[sub] / sv[sub, None]) @ right[sub, :r - 1]
    parts = [_around(q, vals[generic], on_ray[generic], rays[generic],
                     np.broadcast_to(local, u.shape[:2] + (r - 1,)), u)]
    for c in np.flatnonzero(~generic):
        on = on_ray[c]
        flat = q[on] - np.outer(vals[c, on], rays[c])
        local_signs, u = _cells(flat, sign_tol)
        parts.append(_around(q, vals[c:c + 1], on_ray[c:c + 1],
                             rays[c:c + 1], local_signs[None], u[None]))
    signs, witnesses = map(np.vstack, zip(*parts))
    keep = unique_rows(signs > 0)
    return signs[keep], witnesses[keep] @ basis


def _around(q, vals, on, rays, local, u):
    """The cells next to R rays, L per ray, and their negations (the cells
    next to the opposite rays), as (2RL, N) signs and (2RL, r) witnesses.

    vals (R, N) and on (R, N) are the points' signed distances from each
    ray's hyperplane and whether they lie on it; local (R, L, k) are the
    signs of a ray's k on-ray points, in index order, in its L local cells,
    and u (R, L, r) their witnesses, orthogonal to the ray. Off-ray points
    keep their side of the ray's hyperplane; h = ray + delta u with delta
    small enough that none of them flips.
    """
    (R, N), (L, r) = vals.shape, u.shape[1:]
    around = np.repeat(np.where(vals > 0, 1, -1)[:, None], L, axis=1)
    rows, pts = np.nonzero(on)
    around[rows, :, pts] = local.transpose(0, 2, 1).reshape(len(rows), L)
    coupling = np.where(on[:, None], 0.0, np.abs(u @ q.T)).max(axis=2)
    margin = np.where(on, np.inf, np.abs(vals)).min(axis=1)
    delta = 0.5 * margin[:, None] / np.maximum(1.0, coupling)
    around = around.reshape(R * L, N)
    h = (rays[:, None] + delta[..., None] * u).reshape(R * L, r)
    return np.vstack([around, -around]), np.vstack([h, -h])


def enumerate_linear_dichotomies(points, tol: Tolerances = DEFAULT_TOLERANCES) -> DichotomySet:
    """All sign patterns of the points under through-origin linear classifiers.

    The patterns are the cells of the central arrangement {h : h . p_i = 0}
    (Cover, 1965). They do not change when a coordinate or a point is scaled
    by a positive factor, so the points are first scaled to unit column
    maxima and then to unit norm; sign_tol then measures relative distance,
    and data whose coordinates differ by many orders of magnitude loses no
    pattern. After the points are reduced to their span, of rank r, every
    cell touches a ray of the arrangement: the normal h0 to some r-1
    independent points. Near h0 the points off its hyperplane keep
    sign(h0 . p_i), and the points on it take the signs of one cell of their
    own arrangement inside h0's orthogonal complement; -h0 gives the negated
    patterns. So one ray per distinct on-ray point set reaches every
    pattern, with no linear program and no general-position assumption.
    On a generic ray the on-ray points are the r-1 independent points that
    defined it, so they take all 2^(r-1) sign patterns: all generic rays of
    a level are resolved together in one batched pass, their witnesses from
    the same SVD of the subsets that gave the rays. Only the
    degenerate rays, with more points on them or dependent ones, recurse
    into their on-ray points; general-position data never recurses.
    Repeated, collinear or coplanar points and N <= m are exact, and a
    point within relative distance sign_tol of a hyperplane counts as on
    it. r independent points give all 2^r patterns and r = 1 gives two.
    Each witness h0 + delta u separates strictly, with delta small enough
    that no off-ray sign flips. The set is closed under global negation.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, m), got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    if np.any(np.linalg.norm(points, axis=1) <= tol.sign_tol):
        raise ValueError("a point at the origin admits no strict classification")
    col = np.abs(points).max(axis=0, initial=0.0)
    col[col == 0] = 1.0
    unit = points / col
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    signs, witnesses = _cells(unit, tol.sign_tol)
    return DichotomySet(signs, witnesses / col)


def sweep_dichotomies_oracle(points, tol: Tolerances = DEFAULT_TOLERANCES) -> DichotomySet:
    """First-principles dichotomy enumeration for m <= 2.

    m=1 has exactly the two patterns (signs of the coordinates and their
    negation), and an empty point set the one empty pattern. For m=2 the
    normal direction h(theta) = (cos theta, sin theta) is swept through the
    circle; the pattern only changes at the 2N critical angles where h is
    orthogonal to some point, so sampling strictly between consecutive
    critical angles enumerates everything. The rows come sorted, each with
    the first normal that realized it.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, m), got shape {points.shape}")
    N, m = points.shape
    if m > 2:
        raise ValueError("sweep oracle supports only m <= 2")
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms <= tol.sign_tol):
        raise ValueError("a point at the origin admits no strict classification")
    scale = 1.0 + norms

    found: dict[tuple, np.ndarray] = {}
    if m == 1 or N == 0:
        base = np.where(points[:, 0] > 0.0, 1, -1)
        for g in (1, -1):
            found.setdefault(tuple(int(v) for v in g * base), g * np.eye(1, m)[0])
    else:
        ang = np.arctan2(points[:, 1], points[:, 0])
        crit = np.sort(np.concatenate([ang + np.pi / 2, ang - np.pi / 2]) % (2 * np.pi))
        merged = [float(crit[0])]
        for a in crit[1:]:
            if a - merged[-1] > 1e-12:
                merged.append(float(a))
        mids = [(merged[i] + merged[i + 1]) / 2 for i in range(len(merged) - 1)]
        mids.append((merged[-1] + merged[0] + 2 * np.pi) / 2)
        for theta in mids:
            h = np.array([np.cos(theta), np.sin(theta)])
            vals = points @ h
            if np.any(np.abs(vals) <= tol.sign_tol * scale):
                continue            # landed on a coincident critical angle
            found.setdefault(tuple(int(v) for v in np.where(vals > 0, 1, -1)), h)
    keys = sorted(found)
    return DichotomySet(np.array(keys, dtype=np.int64).reshape(len(keys), N),
                        np.array([found[k] for k in keys]).reshape(len(keys), m))
