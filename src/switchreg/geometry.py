"""Point-set geometry: linear dichotomy enumeration and general position checks.

A linear dichotomy of points p_1..p_N in R^m is a sign pattern
(sign(h . p_1), ..., sign(h . p_N)) for some normal vector h with no point
exactly on the separating hyperplane {p : h . p = 0}. The patterns are the
cells of the central hyperplane arrangement {h : h . p_i = 0}, and the
enumeration here walks that arrangement's rays: the generic ones in one
batched pass, recursing only into the points on each degenerate ray's
hyperplane. A level of the walk takes two SVDs: one for the span of its
points, and one stacked over its point subsets, whose last right singular
vectors are the rays. Three kinds of set take no SVD at all: one column,
whose nonzero points span R^1; two columns of three or more points no two
of which lie within 2 SIGN_TOL of one line through the origin, whose 2N
cells (Cover, 1965) are read off one table of the points' pairwise
cross-product signs; and three columns of four or more points with every
pair and every third point decided likewise (see _cells), whose
2 (1 + (N-1) + C(N-1, 2)) cells are read off one table of triple products.
The walk yields sign rows alone: the witnesses,
normals realizing the rows, are computed when they are first read. It is
exact on any data: repeated, collinear or coplanar points and N <= m need
no special handling and no linear program, and coordinates of very
different magnitudes are scaled away first. The one tolerance, the constant
SIGN_TOL, is a relative distance: a point that close to a hyperplane counts
as on it.
The general-position check is a diagnostic only, and decides dependence
by the same scaling and rank test. An independent angle-sweep oracle
covers m <= 2 for verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from .core import SIGN_TOL

__all__ = [
    "DichotomySet",
    "GeneralPositionReport",
    "check_general_position",
    "enumerate_linear_dichotomies",
    "sweep_dichotomies_oracle",
    "unique_rows",
]

# The most (m+1)-subsets check_general_position scans exhaustively, and the
# sample it tests past that.
_MAX_EXHAUSTIVE = 20000
_SAMPLES = 2000
# Local cells of generic rays per slice of _cells' batched pass. It bounds
# that pass's (cells, N) arrays; the point sets of d <= 3 data up to N = 40
# fit in one slice. The witness pass bounds its (rows, rays) arrays by it.
_CELL_SLICE = 1 << 17


class DichotomySet:
    """Enumeration result: (K, N) signs in {+1, -1}, distinct rows in
    ascending order, and the (K, m) witnesses realizing them row by row.
    An enumeration's witness separates its row exactly: p . w, taken
    exactly, has the row's sign at every point p. Its float product can
    underflow to 0 at a point that lies about the float range below its
    column maxima (1e-200 beside 1e200).

    witnesses is given as that array, or as a function of no arguments
    that returns it, called the first time .witnesses is read.
    """

    # read by the benchmark's traced enumeration; nothing is ever dropped
    branch_attempts = 0
    branch_dropped = 0

    def __init__(self, signs, witnesses):
        self.signs = signs
        self._witnesses = (witnesses if callable(witnesses)
                           else np.asarray(witnesses))

    @property
    def witnesses(self) -> np.ndarray:
        if callable(self._witnesses):
            self._witnesses = self._witnesses()
        return self._witnesses

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


def check_general_position(points) -> GeneralPositionReport:
    """Verify that no m+1 points lie on a common affine hyperplane of R^m.

    m+1 points lie on one exactly when their rows (p, 1) are dependent.
    The rows are scaled by _unit_points, as the enumeration scales its
    points, and a subset is flagged when the enumeration's rank test, _rank
    at SIGN_TOL, gives its unit rows rank m or less, so scaling a column
    changes no verdict. Input that is not 2-D, named by its own shape, or
    not finite is refused with _unit_points' messages. Exhaustive over all
    (m+1)-subsets when there are at most 20,000 of them, otherwise 2,000
    random subsets (seed 0) are tested and the report says so.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, m), got shape {points.shape}")
    unit, _ = _unit_points(np.hstack([points, np.ones((len(points), 1))]))
    N, m = points.shape
    sampled = comb(N, m + 1) > _MAX_EXHAUSTIVE
    if not sampled:
        subsets = _combination_rows(N, m + 1)
    else:
        rng = np.random.default_rng(0)
        subsets = np.empty((_SAMPLES, m + 1), dtype=np.int64)
        for j in range(m + 1):
            # a row's r-th untaken index: r + #{i : c_i - i <= r}, c sorted
            taken = np.sort(subsets[:, :j], axis=1) - np.arange(j)
            r = rng.integers(N - j, size=_SAMPLES)
            subsets[:, j] = r + (taken <= r[:, None]).sum(axis=1)

    rows = unit[subsets]                           # (K, m+1, m+1)
    _, _, vt = np.linalg.svd(rows)
    bad = _rank(rows, vt) <= m
    violations = tuple(tuple(int(i) + 1 for i in subsets[r])
                       for r in np.flatnonzero(bad)[:64])
    return GeneralPositionReport(ok=not violations, violations=violations,
                                 sampled=sampled, checked_subsets=len(subsets))


def _packed_keys(rows) -> np.ndarray:
    """One key per row of a boolean (K, N) array, ordered as the rows are
    (False before True, first column first), so numpy sorts, searches and
    compares the keys in the rows' order. Up to 64 columns a row's bits are
    packed MSB-first into one uint64, which numpy sorts natively; wider rows
    become void keys of their bits packed big-endian, compared bytewise.
    Either way the rows are padded with zero bits and packed in one flat
    pass, several times faster than np.packbits along axis 1."""
    K, N = rows.shape
    B = 8 if N <= 64 else -(-N // 8)
    padded = np.zeros((K, 8 * B), dtype=bool)
    padded[:, :N] = rows
    packed = np.packbits(padded)
    if N <= 64:
        return packed.view(">u8").astype(np.uint64)
    return packed.reshape(K, B).view(np.dtype((np.void, B))).ravel()


def unique_rows(rows) -> np.ndarray:
    """First-occurrence index of each distinct row of a boolean (K, N) array,
    in ascending row order, as np.unique(rows, axis=0, return_index=True),
    deduped on _packed_keys: uint64 keys up to 64 columns, void keys past
    that. Pass +/-1 rows as rows > 0. The dedupe is np.unique(keys,
    return_index=True)'s own method inline, a stable argsort of the keys and
    a compare of sorted neighbours, so the indices are the same, without
    np.unique's wrapper."""
    keys = _packed_keys(rows)
    order = keys.argsort(kind="stable")
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return order[new]


def _combination_rows(N: int, k: int) -> np.ndarray:
    """Every k-subset of range(N) as a (comb(N, k), k) int64 index array, in
    lexicographic order: np.array(list(itertools.combinations(range(N), k))),
    built without the tuples' list."""
    count = comb(N, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(N), k))
    return np.fromiter(flat, dtype=np.int64, count=count * k).reshape(count, k)


def _shattered(k):
    """All 2^k boolean rows of k columns in ascending order: the binary
    counts 0 .. 2^k - 1, most significant bit first."""
    return (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1 > 0


def _running_unique(blocks):
    """Dedupe a stream of boolean (k, N) row blocks as it arrives. After
    each block, yield the distinct rows so far in ascending order: after
    the last block, the distinct rows of all the blocks stacked."""
    kept = None
    for block in blocks:
        if kept is not None:
            block = np.concatenate([kept, block])
        kept = block[unique_rows(block)]
        del block                   # hold no more than kept between blocks
        yield kept


def _rank(points, vt):
    """How many leading rows of vt span every point to within SIGN_TOL.

    Works on stacks: points (..., N, m) and orthonormal rows vt (..., k, m)
    spanning the points. The distance of a point from the span of the first
    j rows is the norm of its coordinates on rows j onwards.
    """
    coords = points @ vt.mT
    tail = np.sqrt((coords[..., ::-1] ** 2).cumsum(axis=-1))[..., ::-1]
    return (tail > SIGN_TOL).any(axis=-2).sum(axis=-1)


def _span(points):
    """(basis, q): orthonormal rows spanning the points to within SIGN_TOL,
    from one SVD, and the points' (N, r) coordinates on them."""
    _, _, vt = np.linalg.svd(points, full_matrices=False)
    basis = vt[:_rank(points, vt)]
    return basis, points @ basis.T


def _rays(q):
    """(rays, vals, on_ray): the rays of the arrangement {h : h . q_i = 0}
    in R^r, r >= 1 the rank of the points q (N, r), one unit ray per
    distinct set of on-ray points, with the points' signed distances vals
    (R, N) from each ray's hyperplane and on_ray (R, N), whether they lie
    on it.

    A ray is the normal to r-1 independent points: each (r-1)-subset's
    last right singular vector, from one stacked SVD, kept where _rank
    gives the subset rank r-1. Subsets whose rays have the same on-ray
    points give one ray, the first subset's, and the rays come in the
    order of their on-ray sets (unique_rows).
    """
    N, r = q.shape
    subsets = q[_combination_rows(N, r - 1)]               # (S, r-1, r)
    _, _, right = np.linalg.svd(subsets)
    rays = right[:, -1]
    vals = rays @ q.T                                       # (S, N)
    on_ray = np.abs(vals) <= SIGN_TOL
    kept = (_rank(subsets, right) == r - 1).nonzero()[0]
    kept = kept[unique_rows(on_ray[kept])]
    return rays[kept], vals[kept], on_ray[kept]


def _cells(points):
    """Every cell of the arrangement {h : h . p_i = 0}, as the boolean
    (K, N) table of the points on its positive side: unique rows in
    ascending order.

    The points are unit vectors (up to rounding), so SIGN_TOL is a relative
    distance: a point within SIGN_TOL of a subspace counts as on it, in the
    rank of the set, in the independence of a ray's subset and in the
    on-ray test alike.

    A one-column set takes no SVD: its points must be nonzero, as the unit
    points of _unit_points are, so they span R^1 (rank 1), or nothing when
    there are none, and they go straight to the N == r and r == 1 cases
    with q the points themselves: the same rows, and one empty row for an
    empty set.

    A two-column set of N > 2 unit points in which every pair is decided,
    |p_i x p_j| > 2 SIGN_TOL for all i != j, takes the planar pass, with no
    SVD. Its points span R^2, and no two are within SIGN_TOL
    of one line through the origin: three points all within SIGN_TOL of a
    line would have a pair within it of each other. So every ray below is
    generic, the normal to one point p_i, and decides every other point
    with a full SIGN_TOL to spare, by the sign of p_i x p_j up to one
    global sign (the span's orientation), which the negations absorb. The
    rays' rows are then that sign table's rows with point i taken both
    ways, and their negations: 4N rows holding Cover's 2N cells, each cell
    next to two rays, deduped and ordered by unique_rows as below, so the
    rows are the general pass's bit for bit.

    A three-column set of N > 3 unit points in which every pair and every
    third point is decided, |p_i x p_j| > 4 SIGN_TOL and |det(p_i, p_j,
    p_k)| > 2 SIGN_TOL |p_i x p_j| + 16 eps for all distinct i, j, k, takes
    the three-column pass, with no SVD. det / |p_i x p_j| is p_k's distance
    from the plane of p_i and p_j, so every third point is past 2 SIGN_TOL
    from every pair's plane, and the walk below would give the same rows:
    - the span has rank 3: N >= 4 unit points within SIGN_TOL of one plane
      have one within 2 SIGN_TOL of the plane of two others (to first
      order in SIGN_TOL; a numerical maximization over four points reaches
      2 SIGN_TOL only as two pairs close up, their cross products to
      2 SIGN_TOL);
    - every pair is independent under _rank: two unit points are
      sin(t/2) >= |p_i x p_j| / 2 > 2 SIGN_TOL from their bisector;
    - a pair's ray, its SVD's null vector, is the unit normal
      (p_i x p_j) / |p_i x p_j| up to a few eps / |p_i x p_j| (the
      pair's least singular value is at least |p_i x p_j| / sqrt(2)), so
      its value at p_k is p_k's distance from the plane up to a few
      eps / |p_i x p_j|, and det, the product of the computed normal and
      p_k, is off by a few eps too. The 16 eps covers both, so every other
      point is off the ray by more than SIGN_TOL, on the side det gives up
      to the ray's sign.
    So every ray is generic, the pair's, and the rows are the (C(N, 2), N)
    table of triple products around each pair, with all four local rows,
    and their negations, which absorb the ray's sign: Cover's
    2 (1 + (N-1) + C(N-1, 2)) cells, deduped and ordered by unique_rows as
    below. The rounding term keeps out the recursion's sets: a degenerate
    ray's on-ray points, projected into its plane, have three columns and
    triple products of rounding size, which a margin of 2 SIGN_TOL
    |p_i x p_j| alone lets through where |p_i x p_j| is small (a
    13-point mixed-magnitude set then gives 170 rows, past Cover's 158,
    where the walk gives 154). Every other set, a repeated, antiparallel
    or nearly parallel pair, a set on one line or plane, N <= 2, N <= 3
    in three columns, or four or more columns, is reduced to its span,
    of rank r.

    The cells around a ray are those of its on-ray points projected onto
    the ray's hyperplane. A generic ray has exactly r-1 on-ray points:
    the independent subset that gave the ray, already in its hyperplane.
    The recursion would reach its N == r case and shatter them, so every
    generic ray of a level is resolved in one batched pass that writes its
    2^(r-1) local rows and their negations, with no SVD of its own: a level
    takes one SVD for its span and one stacked SVD for its rays (see
    _rays). The pass runs _CELL_SLICE local cells at a time, deduped as
    they come. Only the degenerate rays recurse.
    """
    N = len(points)
    if points.shape[1] == 2 and N > 2:
        a, b = points.T
        cross = a[:, None] * b - b[:, None] * a          # 0 on the diagonal
        if np.add.reduce(np.abs(cross) > 2 * SIGN_TOL, axis=None) \
                == N * (N - 1):
            side = cross > 0
            # each ray's rows, point i off and on, then their negations
            rows = np.concatenate([side, side, ~side, ~side])
            rows.reshape(4, N * N)[1::2, ::N + 1] = [[True], [False]]
            return rows[unique_rows(rows)]
    if points.shape[1] == 3 and N > 3:
        i, j = _combination_rows(N, 2).T
        normals = np.cross(points[i], points[j])
        vals = normals @ points.T                  # det(p_i, p_j, p_k)
        own = (np.arange(N) == i[:, None]) | (np.arange(N) == j[:, None])
        norms = np.sqrt(np.add.reduce(normals * normals, axis=1,
                                      keepdims=True))
        dist = np.where(own, np.inf, np.abs(vals))
        if ((dist > 2 * SIGN_TOL * norms + 16 * 2.0 ** -52)
                & (norms > 4 * SIGN_TOL)).all():
            rows = _around(vals, own, _shattered(2))
            return rows[unique_rows(rows)]
    q = points if points.shape[1] == 1 else _span(points)[1]
    r = min(N, q.shape[1])                 # the rank: _span's is at most N
    if N == r:
        return _shattered(r)
    if r == 1:
        first = (q[:, 0] > 0) != (q[0, 0] > 0)    # the row without p_1 first
        return np.array([first, ~first])

    # every cell touches a ray: the normal to r-1 independent points
    rays, vals, on_ray = _rays(q)
    # generic rays: their r-1 on-ray points are the independent subset that
    # defined them, and take every local pattern
    generic = on_ray.sum(axis=1) == r - 1
    local = _shattered(r - 1)
    step = max(1, _CELL_SLICE // len(local))

    def blocks():
        ids = generic.nonzero()[0]
        for lo in range(0, len(ids), step):
            c = ids[lo:lo + step]
            yield _around(vals[c], on_ray[c], local)
        parts = []
        for c in (~generic).nonzero()[0]:
            on = on_ray[c]
            flat = q[on] - np.outer(vals[c, on], rays[c])
            parts.append(_around(vals[c:c + 1], on_ray[c:c + 1], _cells(flat)))
        if parts:
            yield np.concatenate(parts)

    for rows in _running_unique(blocks()):
        pass                                 # the last yield holds them all
    return rows


def _around(vals, on, local):
    """The cells next to R rays, L per ray, and their negations (the cells
    next to the opposite rays), as (2RL, N) boolean rows.

    vals (R, N) and on (R, N) are the points' signed distances from each
    ray's hyperplane and whether they lie on it. Each ray has k points on
    it, and local (L, k) are their rows, in index order, in the L local
    cells every ray takes. Off-ray points keep their side of the ray's
    hyperplane.
    """
    (R, N), L = vals.shape, len(local)
    around = (vals > 0)[:, None].repeat(L, axis=1)          # (R, L, N)
    pts = on.nonzero()[1].reshape(R, -1)                    # (R, k)
    around[np.arange(R)[:, None], :, pts] = local.T
    around = around.reshape(R * L, N)
    return np.concatenate([around, ~around])


def _witnesses(points, rows, col):
    """(K, m) witnesses of the cells with the boolean (K, N) rows, for the
    original points of the unit points and column scales col that
    _unit_points gave: p . w > 0, taken exactly, where a row holds, and
    < 0 where it does not.

    After the reduction to the span, a cell's closure is a pointed cone
    spanned by the arrangement's rays in it: the unit rays consistent with
    its row, with no off-ray point on the wrong side. Their sum is interior
    to the cell. The rows are taken _CELL_SLICE // (rays) at a time.
    """
    basis, q = _span(points)
    if not len(basis):                  # no points: the one empty row
        return np.zeros((len(rows), points.shape[1]))
    rays, vals, on_ray = _rays(q)
    side = np.where(on_ray, 0.0, np.sign(vals))              # (R, N)
    off = (~on_ray).sum(axis=1)
    step = max(1, _CELL_SLICE // len(rays))
    sums = []
    for lo in range(0, len(rows), step):
        agree = np.where(rows[lo:lo + step], 1.0, -1.0) @ side.T
        sums.append(((agree == off) * 1.0 - (agree == -off)) @ rays)
    return np.vstack(sums) @ basis / col


def enumerate_linear_dichotomies(points) -> DichotomySet:
    """All sign patterns of the points under through-origin linear classifiers.

    The patterns are the cells of the central arrangement {h : h . p_i = 0}
    (Cover, 1965). They do not change when a coordinate or a point is scaled
    by a positive factor, so the points are first scaled to unit column
    maxima and then to unit norm, through unit row maxima so that no
    square underflows; SIGN_TOL then measures relative distance,
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
    a level are resolved together in one batched pass. Only the
    degenerate rays, with more points on them or dependent ones, recurse
    into their on-ray points; general-position data never recurses. Three
    kinds of set take no SVD. One column of nonzero points spans R^1. Two
    columns of three or more points, no pair of whose unit points has a
    cross product within 2 SIGN_TOL of 0, have exactly 2N cells, each
    next to one point's line, and take their rows from one table of the
    signs of the pairwise cross products. Three columns of four or more
    points, no pair of whose unit points has a cross product within
    4 SIGN_TOL of 0 and no third point within 2 SIGN_TOL (and a rounding
    term) of a pair's plane, have exactly 2 (1 + (N-1) + C(N-1, 2)) cells,
    each next to one pair's ray, and take their rows from one table of
    triple products. Both tables give the rows the ray walk gives.
    Repeated, collinear or coplanar points and N <= m are exact, and a
    point within relative distance SIGN_TOL of a hyperplane counts as on
    it. r independent points give all 2^r patterns and r = 1 gives two.
    The set is closed under global negation. Its witnesses are computed
    the first time they are read: each row's is the sum of the unit rays
    consistent with the row, interior to its cell, so it separates its
    row strictly, p . w taken exactly. In floats p @ w can underflow to 0
    at a point that lies about the float range below its column maxima
    (1e-200 beside 1e200). A caller that reads only the signs pays
    nothing for the witnesses.
    """
    unit, col = _unit_points(points)
    signs = np.where(_cells(unit), 1, -1)
    return DichotomySet(signs, partial(_witnesses, unit, signs > 0, col))


def _unit_points(points):
    """The points scaled to unit column maxima, then to unit norm through
    unit row maxima, and the column scales. Positive scales keep every sign
    pattern, and h separates the unit points as h / col separates the
    originals. Only an exactly zero point is refused. A nonzero row whose
    every coordinate underflows against its column maximum is first scaled
    by a power of two, which is exact and keeps its direction, so that it
    does not become 0 and then NaN; one that underflows only in part loses
    those coordinates."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, m), got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    col = np.abs(points).max(axis=0, initial=0.0)
    col[col == 0] = 1.0
    unit = points / col
    big = np.abs(unit).max(axis=1, keepdims=True)
    if not big.all():
        # a zero point, or one whose every coordinate underflowed against
        # its column maximum: scale such a row by 2^k first, exactly, k the
        # least gap between a column maximum's exponent and a nonzero
        # coordinate's, so that no ratio reaches 2 and the largest passes 1/2
        if not points.any(axis=1).all():
            raise ValueError(
                "a point at the origin admits no strict classification")
        lost = big[:, 0] == 0
        p = points[lost]
        gap = np.frexp(col)[1] - np.frexp(p)[1]
        k = np.where(p != 0, gap, np.iinfo(gap.dtype).max).min(axis=1)
        unit[lost] = np.ldexp(p, k[:, None]) / col
        big = np.abs(unit).max(axis=1, keepdims=True)
    unit /= big
    # np.linalg.norm(unit, axis=1, keepdims=True)'s own expression
    unit /= np.sqrt(np.add.reduce(unit * unit, axis=1, keepdims=True))
    return unit, col


def sweep_dichotomies_oracle(points) -> DichotomySet:
    """First-principles dichotomy enumeration for m <= 2.

    m=1 has exactly the two patterns (signs of the coordinates and their
    negation), and an empty point set the one empty pattern. For m=2 the
    normal direction h(theta) = (cos theta, sin theta) is swept through the
    circle; the pattern only changes at the 2N critical angles where h is
    orthogonal to some point, so sampling strictly between consecutive
    critical angles enumerates everything. The rows come sorted, each with
    the first normal that realized it. The sweep runs on the points scaled
    as enumerate_linear_dichotomies scales them, so any nonzero point, however
    small against the others, is swept like a unit one.
    """
    if np.ndim(points) == 2 and np.shape(points)[1] > 2:
        raise ValueError("sweep oracle supports only m <= 2")
    points, col = _unit_points(points)
    N, m = points.shape

    found: dict[tuple, np.ndarray] = {}
    if m == 1 or N == 0:
        base = np.where(points[:, 0] > 0.0, 1, -1)
        for g in (1, -1):
            found.setdefault(tuple(int(v) for v in g * base), g * np.eye(1, m)[0])
    else:
        ang = np.arctan2(points[:, 1], points[:, 0])
        crit = np.sort(np.concatenate([ang + np.pi / 2, ang - np.pi / 2]) % (2 * np.pi))
        # critical angles within SIGN_TOL of the last kept one are merged:
        # their points count as on one line, as in the enumeration. Each
        # midpoint is then over SIGN_TOL / 2 from the kept angles around it.
        merged = [float(crit[0])]
        for a in crit[1:]:
            if a - merged[-1] > SIGN_TOL:
                merged.append(float(a))
        mids = [(merged[i] + merged[i + 1]) / 2 for i in range(len(merged) - 1)]
        mids.append((merged[-1] + merged[0] + 2 * np.pi) / 2)
        for theta in mids:
            h = np.array([np.cos(theta), np.sin(theta)])
            vals = points @ h
            if np.any(np.abs(vals) <= SIGN_TOL / 2):
                continue            # landed on a coincident critical angle
            found.setdefault(tuple(int(v) for v in np.where(vals > 0, 1, -1)), h)
    keys = sorted(found)
    return DichotomySet(np.array(keys, dtype=np.int64).reshape(len(keys), N),
                        np.array([found[k] for k in keys]).reshape(len(keys), m)
                        / col)
