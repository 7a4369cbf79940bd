"""Instance generation, dataset serialization, and labeling scores.

The generator draws ground-truth models and regressors from configurable
distributions, a mode sequence from either an iid-uniform or a sticky
Markov process, and outputs y_i = w_{q_i} . x_i plus Gaussian noise.
Everything is driven by numpy's seeded PCG64 generator (default_rng), so a
(spec, seed) pair reproduces bit-identical datasets on any platform.

File formats: CSV with header x1,...,xd,y at full round-trip precision, and
JSON which also carries metadata (n, seed, ground truth when known).
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Labeling, ModelSet

__all__ = [
    "GeneratorSpec",
    "DatasetBundle",
    "generate_instance",
    "save_dataset_csv",
    "load_dataset_csv",
    "save_dataset_json",
    "load_dataset_json",
    "label_accuracy",
]

MODE_PROCESSES = ("iid-uniform", "markov")
X_DISTRIBUTIONS = ("gaussian", "uniform_box")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a random switching-regression instance.

    mode_process "markov" holds each mode with probability p_stay and
    otherwise jumps uniformly to another; "iid-uniform" ignores p_stay.
    x_distribution "uniform_box" draws regressors uniformly from [-1, 1]^d.
    """

    n: int
    d: int
    N: int
    noise_sigma: float = 0.0
    seed: int = 0
    mode_process: str = "iid-uniform"
    p_stay: float = 0.8
    x_distribution: str = "gaussian"

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.N < 1:
            raise ValueError("n, d, N must be positive")
        if self.N < self.n * self.d:
            raise ValueError(f"need N >= n*d, got N={self.N}, n*d={self.n * self.d}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be a nonnegative real")
        if self.mode_process not in MODE_PROCESSES:
            raise ValueError(f"mode_process must be one of {MODE_PROCESSES}")
        if self.x_distribution not in X_DISTRIBUTIONS:
            raise ValueError(f"x_distribution must be one of {X_DISTRIBUTIONS}")
        if not (0.0 < self.p_stay < 1.0):
            raise ValueError("p_stay must be strictly between 0 and 1")


@dataclass(frozen=True)
class DatasetBundle:
    """A dataset with whatever metadata a JSON file carried."""

    data: Dataset
    n: int | None = None
    seed: int | None = None
    models: ModelSet | None = None
    labeling: Labeling | None = None


def generate_instance(spec: GeneratorSpec) -> tuple[Dataset, ModelSet, Labeling]:
    """Draw (data, ground-truth models, ground-truth labeling) from the spec."""
    rng = np.random.default_rng(spec.seed)
    w = rng.standard_normal((spec.n, spec.d))
    if spec.x_distribution == "gaussian":
        x = rng.standard_normal((spec.N, spec.d))
    else:
        x = rng.uniform(-1.0, 1.0, size=(spec.N, spec.d))

    if spec.mode_process == "iid-uniform":
        q0 = rng.integers(0, spec.n, size=spec.N)
    else:
        q0 = np.zeros(spec.N, dtype=np.int64)
        q0[0] = rng.integers(0, spec.n)
        for i in range(1, spec.N):
            if spec.n == 1 or rng.random() < spec.p_stay:
                q0[i] = q0[i - 1]
            else:
                others = [j for j in range(spec.n) if j != q0[i - 1]]
                q0[i] = others[rng.integers(0, len(others))]

    y = (np.einsum("ij,ij->i", x, w[q0])
         + spec.noise_sigma * rng.standard_normal(spec.N))
    return Dataset(x, y), ModelSet(w), Labeling(q0 + 1)


# ---------------------------------------------------------------------------
# Serialization


def save_dataset_csv(path, data: Dataset) -> None:
    """Write header x1,...,xd,y and one full-precision row per point."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"x{i + 1}" for i in range(data.d)] + ["y"])
        for xi, yi in zip(data.x, data.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by save_dataset_csv; errors name the bad row."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2 or header[-1] != "y" or \
            header[:-1] != [f"x{i + 1}" for i in range(len(header) - 1)]:
        raise ValueError(f"{path}: header must be x1,...,xd,y, got {header}")
    d = len(header) - 1
    xs, ys = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != d + 1:
            raise ValueError(f"{path}: row {r} has {len(row)} fields, expected {d + 1}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"{path}: row {r} has a non-numeric field: {exc}") from exc
        xs.append(vals[:-1])
        ys.append(vals[-1])
    if not xs:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(xs), np.array(ys))


def save_dataset_json(path, data: Dataset, *, n: int | None = None,
                      seed: int | None = None, models: ModelSet | None = None,
                      labeling: Labeling | None = None) -> None:
    """JSON dump of a dataset with optional ground-truth metadata."""
    doc: dict = {
        "d": data.d,
        "N": data.N,
        "x": [[repr(float(v)) for v in row] for row in data.x],
        "y": [repr(float(v)) for v in data.y],
    }
    if n is not None:
        doc["n"] = int(n)
    if seed is not None:
        doc["seed"] = int(seed)
    if models is not None:
        doc["true_w"] = [[repr(float(v)) for v in row] for row in models.w]
    if labeling is not None:
        doc["true_labels"] = [int(v) for v in labeling.q]
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def _json_int(path, doc: dict, key: str) -> int | None:
    """doc[key] if it is a JSON integer, None if absent; bools are refused."""
    v = doc.get(key)
    if key in doc and type(v) is not int:
        raise ValueError(f"{path}: field {key!r} must be an integer, got {v!r}")
    return v


def _json_floats(path, values, what: str) -> list:
    """A JSON list of numbers (or numeric strings) as floats; a boolean, or
    an integer past the float range, is refused."""
    if not isinstance(values, list):
        raise ValueError(f"{path}: {what} must be a list, got {values!r}")
    try:
        if any(isinstance(v, bool) for v in values):
            raise TypeError("a boolean is not a number")
        return [float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {what} has a non-numeric entry: {exc}") from exc


def _json_rows(path, doc: dict, key: str) -> list:
    """doc[key] as a list of float rows."""
    rows = doc[key]
    if not isinstance(rows, list):
        raise ValueError(f"{path}: field {key!r} must be a list, got {rows!r}")
    return [_json_floats(path, row, f"{key} row {r}")
            for r, row in enumerate(rows, start=1)]


def _read_json(path):
    """The JSON document in the file at path. A document json.load refuses,
    on its syntax or its digit limit, raises ValueError naming the file."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:          # JSONDecodeError included
            raise ValueError(f"{path}: {exc}") from exc


def load_dataset_json(path) -> DatasetBundle:
    """Read a dataset (plus metadata) written by save_dataset_json.

    d, N, n and seed must be JSON integers, x and true_w lists of lists, y a
    list and true_labels a list of integers. The ground truth must fit the
    data: true_w one or more rows of d entries, true_labels N labels in
    1..n (any positive label when n is absent). Anything else raises
    ValueError naming the file and the field.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in ("x", "y", "d", "N"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    d, N, n = (_json_int(path, doc, key) for key in ("d", "N", "n"))
    xs = _json_rows(path, doc, "x")
    ys = _json_floats(path, doc["y"], "field 'y'")
    if len(xs) != N or len(ys) != N:
        raise ValueError(f"{path}: x/y lengths do not match N={N}")
    if not xs:
        raise ValueError(f"{path}: no data rows")
    ws = _json_rows(path, doc, "true_w") if "true_w" in doc else None
    if ws == []:
        raise ValueError(f"{path}: field 'true_w' has no rows")
    for key, rows in (("x", xs), ("true_w", ws or ())):
        for r, row in enumerate(rows, start=1):
            if len(row) != d:
                raise ValueError(f"{path}: {key} row {r} has {len(row)} "
                                 f"entries, expected {d}")
    data = Dataset(np.array(xs), np.array(ys))
    models = None if ws is None else ModelSet(np.array(ws))
    labeling = None
    if "true_labels" in doc:
        labels = doc["true_labels"]
        if not (isinstance(labels, list) and len(labels) == N and all(
                type(v) is int and 0 < v <= (v if n is None else n)
                for v in labels)):
            raise ValueError(f"{path}: field 'true_labels' must be a list of "
                             f"N={N} integers in 1..{'n' if n is None else n}"
                             f", got {labels!r}")
        labeling = Labeling(np.array(labels, dtype=np.int64))
    return DatasetBundle(data=data, n=n, seed=_json_int(path, doc, "seed"),
                         models=models, labeling=labeling)


# ---------------------------------------------------------------------------
# Scoring


def label_accuracy(predicted: Labeling, truth: Labeling, n: int) -> float:
    """Fraction of points labeled correctly, maximized over mode permutations.

    Mode identity is only meaningful up to permutation, so every one of the
    n! relabelings of predicted is scored, n up to 8: a relabeling's count
    of agreeing points is a sum of n entries of the (n, n) table counting
    the points with each (predicted, truth) label pair.
    """
    if predicted.N != truth.N:
        raise ValueError("labelings have different lengths")
    if n > 8:
        raise ValueError("exhaustive permutation matching capped at n = 8")
    if np.any(predicted.q > n) or np.any(truth.q > n):
        raise ValueError(f"label exceeds n={n}")
    pairs = np.zeros((n, n), dtype=np.int64)
    np.add.at(pairs, (predicted.q - 1, truth.q - 1), 1)
    perms = np.array(list(itertools.permutations(range(n))))   # (n!, n)
    return float(pairs[np.arange(n), perms].sum(axis=1).max() / truth.N)
