"""Core types and point-to-mode machinery for switching linear regression.

A switching-regression instance is a set of N points (x_i, y_i) with
x_i in R^d, a number of modes n, and a loss on scalar residuals. A model
set is n parameter vectors w_1..w_n; a labeling assigns each point to one
mode. The empirical cost averages the loss of each point under its own
mode. Everything downstream (solvers, geometry, hardness reductions)
works through the primitives in this module.

Conventions: mode labels and point indices in public structures are
1-based; internal numpy arrays are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ZERO_TOL",
    "SIGN_TOL",
    "LossModel",
    "SQUARED",
    "ABSOLUTE",
    "Dataset",
    "ModelSet",
    "Labeling",
    "PairwiseClassifier",
    "empirical_cost",
    "assign_modes",
    "pairwise_classifiers_from_models",
    "majority_vote_label",
    "canonicalize_labels",
]


ZERO_TOL = 1e-9    # zero margin: of costs, cost gaps, fitted residuals, ties
SIGN_TOL = 1e-12   # strict-sign margin: of classifier values, of unit points
                   # in the one rank test of enumeration and position check


@dataclass(frozen=True)
class LossModel:
    """Symmetric loss on scalar residuals, zero only at zero, increasing in |e|."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("squared", "absolute"):
            raise ValueError(f"unknown loss {self.kind!r} "
                             f"(expected 'squared' or 'absolute')")

    def residual_loss(self, e):
        """Elementwise loss of an array of residuals. A finite residual
        whose square is past the float range has loss inf, with no
        warning."""
        e = np.asarray(e, dtype=float)
        if not np.isfinite(e).all():
            raise ValueError("residuals must be finite")
        if self.kind == "squared":
            with np.errstate(over="ignore"):
                return np.square(e)
        return np.abs(e)


SQUARED = LossModel("squared")
ABSOLUTE = LossModel("absolute")


class Dataset:
    """Immutable regression data: x is (N, d), y is (N,)."""

    def __init__(self, x, y):
        x = np.array(x, dtype=float)
        y = np.array(y, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-d (N, d), got shape {x.shape}")
        if y.ndim != 1:
            raise ValueError(f"y must be 1-d (N,), got shape {y.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[0] < 1:
            raise ValueError("dataset needs at least one point")
        if x.shape[1] < 1:
            raise ValueError("dataset needs at least one regressor dimension")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("data must be finite")
        x.flags.writeable = False
        y.flags.writeable = False
        self.x = x
        self.y = y

    @property
    def N(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def lifted(self) -> np.ndarray:
        """Points z_i = (x_i, y_i) in R^(d+1), used by the geometric solver."""
        return np.concatenate([self.x, self.y[:, None]], axis=1)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)

    def __repr__(self):
        return f"Dataset(N={self.N}, d={self.d})"


class ModelSet:
    """n parameter vectors stacked as rows of w, shape (n, d)."""

    def __init__(self, w):
        w = np.array(w, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"w must be 2-d (n, d), got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValueError("need at least one mode")
        if not np.isfinite(w).all():
            raise ValueError("model parameters must be finite")
        w.flags.writeable = False
        self.w = w

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]

    def __eq__(self, other):
        if not isinstance(other, ModelSet):
            return NotImplemented
        return np.array_equal(self.w, other.w)

    def __repr__(self):
        return f"ModelSet(n={self.n}, d={self.d})"


class Labeling:
    """Mode labels q_i in {1..n} plus the indices where the assignment tied.

    tie_set is a sorted tuple of 1-based point indices at which at least two
    modes achieved the minimal loss within ZERO_TOL when the labeling was
    produced by assign_modes. Labelings built by hand may leave it empty.
    """

    def __init__(self, q, tie_set=()):
        q = np.array(q, dtype=np.int64)
        if q.ndim != 1:
            raise ValueError(f"q must be 1-d, got shape {q.shape}")
        if q.size < 1:
            raise ValueError("labeling needs at least one point")
        if (q < 1).any():
            raise ValueError("mode labels are 1-based; found a label < 1")
        q.flags.writeable = False
        tie = tuple(sorted(int(i) for i in tie_set))
        if len(set(tie)) != len(tie):
            raise ValueError("tie_set has duplicate indices")
        for i in tie:
            if not (1 <= i <= q.size):
                raise ValueError(f"tie_set index {i} outside 1..{q.size}")
        self.q = q
        self.tie_set = tie

    @property
    def N(self) -> int:
        return self.q.size

    def as_tuple(self) -> tuple:
        return tuple(int(v) for v in self.q)

    def __eq__(self, other):
        if not isinstance(other, Labeling):
            return NotImplemented
        return np.array_equal(self.q, other.q) and self.tie_set == other.tie_set

    def __repr__(self):
        return f"Labeling(q={self.as_tuple()}, ties={self.tie_set})"


@dataclass(frozen=True)
class PairwiseClassifier:
    """Comparator of modes j < k built from their parameter vectors.

    w_bar is the midpoint (w_j + w_k) / 2 and w_tilde the difference
    w_j - w_k. For a point (x, y) the value

        c = sign(y - w_bar . x) * sign(w_tilde . x)

    is +1 exactly when mode j has strictly smaller absolute residual than
    mode k, and -1 in the opposite case; the two factors are linear in the
    lifted point (x, y) and in x respectively.
    """

    j: int
    k: int
    w_bar: np.ndarray = field(compare=False)
    w_tilde: np.ndarray = field(compare=False)

    def __post_init__(self):
        if not (1 <= self.j < self.k):
            raise ValueError(f"need 1 <= j < k, got j={self.j}, k={self.k}")

    def factors(self, x, y) -> tuple[float, float]:
        """Raw values (y - w_bar . x, w_tilde . x) before taking signs."""
        x = np.asarray(x, dtype=float)
        return float(y - self.w_bar @ x), float(self.w_tilde @ x)

    def vote(self, x, y) -> int:
        """Sign of the product, 0 when either factor is within SIGN_TOL of 0."""
        g_raw, h_raw = self.factors(x, y)
        return _strict_sign(g_raw) * _strict_sign(h_raw)


def _strict_sign(v: float) -> int:
    if v > SIGN_TOL:
        return 1
    if v < -SIGN_TOL:
        return -1
    return 0


def _cost_arrays(x, y, w, q0, loss: LossModel) -> np.ndarray:
    """Mean loss of each point under its mode, for each row of the (K, N)
    stack of 0-based labelings q0 under its own models in the (K, n, d)
    stack w: (K,) costs, each np.mean(residual_loss(r)) of its row bit for
    bit (an add.reduce and one true divide), so a row costs the same in
    any stack. One labeling is a stack of one (empirical_cost)."""
    r = y - np.einsum("ij,kij->ki", x, w[np.arange(len(q0))[:, None], q0])
    return loss.residual_loss(r).sum(axis=1) / r.shape[1]


def empirical_cost(data: Dataset, models: ModelSet, labeling: Labeling,
                   loss: LossModel) -> float:
    """Average loss of each point under its assigned mode: _cost_arrays on
    a stack of one, so bit for bit each solver's reported cost."""
    if labeling.N != data.N:
        raise ValueError(f"labeling covers {labeling.N} points, data has {data.N}")
    if models.d != data.d:
        raise ValueError(f"models have d={models.d}, data has d={data.d}")
    if np.any(labeling.q > models.n):
        raise ValueError(f"label exceeds the number of modes n={models.n}")
    return float(_cost_arrays(data.x, data.y, models.w[None],
                              labeling.q[None] - 1, loss)[0])


def _assign_arrays(x, y, w, loss: LossModel):
    """0-based min-loss labels for models w (n, d), plus the boolean mask
    of the points where two modes tie within ZERO_TOL, both (N,). For a
    stack w (K, n, d), as _cost_arrays takes, both are (K, N), and row k
    is bit for bit its own call's."""
    losses = loss.residual_loss(y[:, None] - x @ w.mT)
    near_min = losses <= losses.min(axis=-1)[..., None] + ZERO_TOL
    q0 = near_min.argmax(axis=-1)                          # first mode within tol
    return q0, near_min.sum(axis=-1) >= 2


def assign_modes(data: Dataset, models: ModelSet, loss: LossModel) -> Labeling:
    """Optimal labeling for fixed models: each point takes a min-loss mode.

    When two or more modes tie within ZERO_TOL of the per-point minimum the
    smallest mode index wins and the point is recorded in tie_set.
    """
    if models.d != data.d:
        raise ValueError(f"models have d={models.d}, data has d={data.d}")
    q0, tied = _assign_arrays(data.x, data.y, models.w, loss)
    return Labeling(q0 + 1, tie_set=(np.flatnonzero(tied) + 1).tolist())


def pairwise_classifiers_from_models(models: ModelSet) -> list[PairwiseClassifier]:
    """Classifiers for every mode pair j < k, in lexicographic order."""
    if models.n < 2:
        raise ValueError("pairwise classifiers need at least two modes")
    out = []
    for j, k in itertools.combinations(range(1, models.n + 1), 2):
        wj, wk = models.w[j - 1], models.w[k - 1]
        out.append(PairwiseClassifier(j=j, k=k,
                                      w_bar=(wj + wk) / 2.0,
                                      w_tilde=wj - wk))
    return out


def majority_vote_label(x, y, classifiers: list[PairwiseClassifier]) -> tuple[int, tuple]:
    """Label a single point by tallying all pairwise comparisons.

    Each classifier value +1 is a vote for its mode j, -1 a vote for k, and
    a value inside the sign margin votes for neither. Returns the winning
    mode (smallest index on ties) plus the tied-maximizer set, which also
    includes any mode that could still reach the maximum via its undecided
    comparisons.
    """
    if not classifiers:
        raise ValueError("need at least one pairwise classifier")
    n = max(c.k for c in classifiers)
    expected = {(j, k) for j, k in itertools.combinations(range(1, n + 1), 2)}
    got = {(c.j, c.k) for c in classifiers}
    if got != expected:
        raise ValueError(f"classifier set does not cover all pairs of 1..{n}")

    score = np.zeros(n, dtype=np.int64)
    slack = np.zeros(n, dtype=np.int64)      # undecided comparisons per mode
    for c in classifiers:
        v = c.vote(x, y)
        if v > 0:
            score[c.j - 1] += 1
        elif v < 0:
            score[c.k - 1] += 1
        else:
            slack[c.j - 1] += 1
            slack[c.k - 1] += 1
    top = score.max()
    tied = np.flatnonzero(score + slack >= top) + 1
    label = int(np.flatnonzero(score == top)[0]) + 1
    return label, tuple(int(t) for t in tied)


def canonicalize_labels(labeling: Labeling, n: int) -> Labeling:
    """Relabel modes in order of first occurrence (first point gets mode 1).

    Idempotent; ties are preserved. n bounds the admissible label values.
    """
    q = labeling.q
    if np.any(q > n):
        raise ValueError(f"label exceeds n={n}")
    return Labeling(_canonicalize_arrays(q - 1) + 1, tie_set=labeling.tie_set)


def _canonicalize_arrays(q0: np.ndarray, w: np.ndarray | None = None):
    """First-occurrence relabeling of 0-based label arrays, row by row.

    q0 is (..., N); each row along the last axis is relabeled on its own.
    With model rows w, (n, d) for a single row q0 or (..., n, d) for a
    stack, also returns each row's models permuted to match: used modes in
    order of first occurrence, then the unused ones in index order.
    """
    n = w.shape[-2] if w is not None else int(q0.max(initial=-1)) + 1
    N = q0.shape[-1]
    hit = q0[..., None, :] == np.arange(n)[:, None]        # (..., n, N)
    first = np.where(hit.any(axis=-1), hit.argmax(axis=-1), N)
    order = np.argsort(first, axis=-1, kind="stable")      # old mode by rank
    q_new = np.take_along_axis(np.argsort(order, axis=-1), q0, axis=-1)
    if w is None:
        return q_new
    return q_new, np.take_along_axis(w, order[..., None], axis=-2)
