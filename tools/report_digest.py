#!/usr/bin/env python3
"""One hash per solve report, to check that two checkouts agree bit for bit.

    python3 tools/report_digest.py --root . --seed 113 --rounds 8 > new.txt
    python3 tools/report_digest.py --root ../old --seed 113 --rounds 8 > old.txt
    diff old.txt new.txt

--root names the checkout whose src/ and benchmark/workloads.py are
imported (default: the one holding this script), so the script also digests
checkouts that predate it. Each line is a label and a SHA-256 prefix of one
call's outcome: the cost's bits, the models' bytes, the labels, the tie set,
the status and candidates_examined, plus the answer of a Partition decision;
a call that raised hashes its exception's type and message. A solve
report's line, and a decision's, ends with the repr of its cost, so a moved
line shows how far it moved. The lines cover
every call of every benchmark workload for the given rounds at the seed,
then a fixed sweep of random instances (n 1-3, d 1-3, both losses, Gaussian
and integer-grid data with zero regressors and repeated rows) solved by
every method, and a slice of the near-collinear sweep (n 2, d 2, points
nudged off integer lines by 1e-5 to 1e-8, where a least-squares fit can
reach |w| near 1e9) solved the same way, then a few tiny-regressor draws
solved the same way (generator data at n 2, d 2, N 7, noise 0.1, with the
regressors of rows 2, 4 and 5 scaled by 1e-13 or 1e-20, where enum is known
to miss the optimum), and last the noiseless solver's two known limits at
n 2 solved the same way (x = [[1, 1], [2, 2]], y = [1, 0], where it says
infeasible on a zero-cost fit whose modes hold fewer than d points, and
three zero regressors, none of whose interpolants fits a point). On each of
those instances and losses the fit entry points are digested too:
fit_modes' models on FITS seeded labelings, and refine_alternate's models,
labels and full cost trace from seeded models, so a change to a fit is
compared bit for bit below the reports. Last come the sign rows that
enumerate_linear_dichotomies gives on a fixed sweep of point sets
(Gaussian in m 1-5, integer grids with repeated points and collinear
triples, and Gaussian points whose leading coordinates are scaled by 1e-5,
1e-7, 1e-10, 1e-13 or 1e-20 in a few rows, as the lifted points of tiny
regressors are), so a change to the geometry is compared bit for bit on
its own, each set's row line followed by a line of check_general_position's
report on it (ok, violations, sampled, checked_subsets). The same two lines
follow for a few planar sets on either side of the planar pass's bound
(every pair's cross product of unit points past 2 SIGN_TOL; see
planar_point_sets), then for a few three-column sets on either side of the
three-column pass's bound (every pair's cross product of unit points past
4 SIGN_TOL and every third point past 2 SIGN_TOL from their plane, with a
rounding term; see three_column_point_sets), then for the lifted (G) and
regressor (H) points of
the Partition reductions of PARTITIONS, sizes 2-6, whose points repeat
every regressor and lie on many common hyperplanes, then for those of the tiny-regressor
draws, which are in general position but whose lifted points lie within
SIGN_TOL of the y axis, where the enumeration is known to give fewer rows
than their exact cell count, and last for those of the Partition
reductions of (2^k, 2^k + 2, 1, 1) for k in REDUCTION_EXPONENTS, whose G
sets have 258 cells by their exact count, where the enumeration is known
to give other row counts from k = 13 on.
Then two absolute-loss calls whose interpolant pools pass the solvers'
slice of 1,024 rows: solve_mode_regression on the first 24 points of
generator data at n 2, d 3, N 40, noise 0.1, seed 0 (2,324 pool rows), and
altmin_solve on all 40 at n 2 (modes of 19 or more points). Last, the
instance SUBNORMAL_X, SUBNORMAL_Y, whose first regressor is subnormal, so
that its one-point fit, 1 / 1e-310, is not a float, solved at n 1 and 2
the same way as the sweep; the solvers let numpy warn of none of its
overflows, so its lines do not depend on a warnings filter.
Elapsed times are left out.
tests/data/report_digest.txt holds the output of --seed 113 --rounds 1
under a header naming the numpy version and the command, and
tests/test_report_digest.py checks it line for line; a change that moves
a line commits the regenerated file.
BLAS thread pools are pinned to one thread, as in benchmark/run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("enum-gp", "enum-n3", "grid-oracle")
SWEEP = 150                     # random instances, each under both losses
POINT_SETS = 280                # point sets whose dichotomies are hashed
SCALES = ("1e-5", "1e-7", "1e-10", "1e-13", "1e-20")
FITS = 3                        # seeded labelings fitted per sweep instance
NEAR = range(960, 1000)         # draws of the near-collinear sweep digested
TINY_SEEDS = range(3)           # generator seeds of the tiny-regressor draws
TINY_SCALES = ("1e-13", "1e-20")
PARTITIONS = ((1, 2), (3, 1, 2), (5, 3, 2, 4), (17, 13, 10, 6, 6),
              (4, 8, 3, 5, 2, 6))       # multisets whose G and H are hashed
REDUCTION_EXPONENTS = (12, 13, 16, 24, 40)  # G and H of (2^k, 2^k + 2, 1, 1)
PLANAR_ANGLES = (0.0, 1.5707963267948966, 0.4, 1.1, 2.0, 2.7, -0.5, -1.3)
THREE_COLUMN_POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                       (1, -2, 3), (-3, 1, 2), (2, 3, -1), (1, 3, 2))
MIXED_SEED = 798                # 13 points x 10^U(-20, 20) each entry
SUBNORMAL_X = ((1e-310, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
SUBNORMAL_Y = (1.0, 1.0, 2.0, 3.0)


def digest(outcome) -> str:
    """SHA-256 prefix of a report's result fields, of a dichotomy set's
    sign rows, of a general-position report, of a model set's parameters,
    of a refinement's models, labels and cost trace, or of an exception."""
    h = hashlib.sha256()
    if isinstance(outcome, Exception):
        h.update(f"{type(outcome).__name__}: {outcome}".encode())
        return "raised:" + h.hexdigest()[:16]
    signs = getattr(outcome, "signs", None)
    if signs is not None:
        h.update(repr(signs.shape).encode())
        h.update(signs.astype("<i8").tobytes())
        return h.hexdigest()[:16]
    violations = getattr(outcome, "violations", None)
    if violations is not None:           # a GeneralPositionReport
        h.update(repr((outcome.ok, violations, outcome.sampled,
                       outcome.checked_subsets)).encode())
        return h.hexdigest()[:16]
    w = getattr(outcome, "w", None)
    if w is not None:                    # a ModelSet
        h.update(repr(w.shape).encode())
        h.update(w.tobytes())
        return h.hexdigest()[:16]
    costs = getattr(outcome, "costs", None)
    if costs is not None:                # a RefineResult
        h.update(outcome.models.w.tobytes())
        h.update(outcome.labeling.q.tobytes())
        h.update(repr(outcome.labeling.tie_set).encode())
        h.update("|".join(float(c).hex() for c in costs).encode())
        return h.hexdigest()[:16]
    report = getattr(outcome, "report", outcome)
    h.update(float(report.cost).hex().encode())
    h.update(report.models.w.tobytes())
    h.update(report.labeling.q.tobytes())
    h.update(repr(report.labeling.tie_set).encode())
    h.update(f"{report.status}|{report.candidates_examined}".encode())
    if report is not outcome:
        h.update(f"|answer={outcome.answer}".encode())
    return h.hexdigest()[:16]


def line(label, outcome) -> str:
    """The label and digest of an outcome, then the repr of its cost where
    it is a solve report or a decision."""
    cost = getattr(getattr(outcome, "report", outcome), "cost", None)
    return f"{label} {digest(outcome)}" + (
        "" if cost is None else f" {float(cost)!r}")


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:             # the digest records what was raised
        return exc


def sweep_instances(np, Dataset, datasets):
    """(label, data, n) for the fixed random sweep, then the NEAR draws of
    the near-collinear sweep, then the tiny-regressor draws, then the
    noiseless solver's two known limit cases."""
    for i in range(SWEEP):
        rng = np.random.default_rng([2024, i])
        n, d = 1 + i % 3, 1 + (i // 3) % 3
        N = int(rng.integers(1, 14 - 2 * d - n + 2))
        if i % 2:
            x = rng.integers(-2, 3, size=(N, d)).astype(float)
            y = rng.integers(-2, 3, size=N).astype(float)
            if N > 1:
                x[-1], y[-1] = x[0], y[0]           # a repeated row
        else:
            x, y = rng.standard_normal((N, d)), rng.standard_normal(N)
        yield f"sweep{i}-n{n}-d{d}-N{N}", Dataset(x, y), n
    for i, (x, y) in enumerate(near_collinear_draws(np, NEAR.stop)):
        if i in NEAR:
            yield f"near{i}-n2-d2-N{len(y)}", Dataset(x, y), 2
    for label, data in tiny_draws(Dataset, datasets):
        yield f"{label}-n2-d2-N7", data, 2
    # noiseless's two known limits at n 2: a zero-cost fit whose modes hold
    # one point each, and zero regressors, whose interpolants fit no point
    yield "limit-rank1-n2-d2-N2", Dataset(np.array([[1.0, 1.0], [2.0, 2.0]]),
                                          np.array([1.0, 0.0])), 2
    yield "limit-zero-n2-d1-N3", Dataset(np.zeros((3, 1)),
                                         np.array([1.0, 2.0, 3.0])), 2


def tiny_draws(Dataset, datasets):
    """(label, data) of the tiny-regressor draws: generator data at n 2,
    d 2, N 7, noise 0.1, one per seed in TINY_SEEDS, with the regressors
    of rows 2, 4 and 5 scaled by each of TINY_SCALES."""
    for seed in TINY_SEEDS:
        data = datasets.generate_instance(datasets.GeneratorSpec(
            n=2, d=2, N=7, noise_sigma=0.1, seed=seed))[0]
        for scale in TINY_SCALES:
            x = data.x.copy()
            x[[2, 4, 5]] *= float(scale)
            yield f"tiny{seed}-{scale}", Dataset(x, data.y)


def near_collinear_draws(np, count):
    """The first count (x, y) of the near-collinear sweep: integer points
    in R^2 with one or two rows' second coordinate nudged by 1e-5 to 1e-8,
    and integer targets, half of them with 1e-3 noise."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        N = int(rng.integers(5, 9))
        x = rng.integers(-3, 4, size=(N, 2)).astype(float)
        rows = rng.choice(N, size=rng.integers(1, 3), replace=False)
        x[rows, 1] += rng.choice([1e-5, 1e-6, 1e-7, 1e-8]) * \
            rng.standard_normal(len(rows))
        yield x, rng.integers(-3, 4, size=N).astype(float) + \
            rng.choice([0, 1e-3]) * rng.standard_normal(N)


def fit_outcomes(np, solvers, core, data, n, loss, seed):
    """(name, outcome) of the fit entry points on one instance: fit_modes
    on FITS labelings and refine_alternate from Gaussian models, all drawn
    from the seed."""
    rng = np.random.default_rng(seed)
    for k in range(FITS):
        labeling = core.Labeling(rng.integers(1, n + 1, size=data.N))
        yield f"fit{k}", attempt(solvers.fit_modes, data, labeling, n, loss)
    models = core.ModelSet(rng.standard_normal((n, data.d)))
    yield "refine", attempt(solvers.refine_alternate, data, models, loss)


def point_sets(np):
    """(label, points) for the fixed sweep of dichotomy inputs: m cycles
    through 1-5 and the kind through Gaussian, integer grid and Gaussian
    with the leading coordinates of rows 2, 4 and 5 scaled by one of
    SCALES. A grid set drops its zero points and gains a repeat of its
    first point and a point collinear with its first two. Scales of 1e-5
    to 1e-10 put those rows' subsets between the ones whose rays minors
    give and the ones an SVD must give."""
    for i in range(POINT_SETS):
        rng = np.random.default_rng([2025, i])
        m = 1 + i % 5
        kind = (("gauss", "grid") + SCALES)[i // 5 % (2 + len(SCALES))]
        N = int(rng.integers(1, 13))
        if kind == "grid":
            pts = rng.integers(-2, 3, size=(N, m)).astype(float)
            pts = pts[pts.any(axis=1)]
            if len(pts) < 2:
                pts = np.vstack([pts, np.eye(2, m)])[:2]
            pts = np.vstack([pts, pts[0], 2 * pts[1] - pts[0]])
            pts = pts[pts.any(axis=1)]
        else:
            pts = rng.standard_normal((max(N, 6), m))
            if kind != "gauss":
                pts[[2, 4, 5], :max(1, m - 1)] *= float(kind)
        yield f"rows{i}-{kind}-m{m}-N{len(pts)}", pts


def planar_point_sets(np, sign_tol):
    """(label, points) for the sets on either side of the bound of _cells'
    planar pass, which takes two-column sets of three or more points whose
    unit points have every pairwise cross product past 2 sign_tol: the
    unit points at PLANAR_ANGLES (column maxima 1, so they are their own
    unit points up to rounding), alone and with a repeat of the third, its
    negation, or the third turned by 1.5 or 3 sign_tol, and five points on
    one line through the origin."""
    def at(angles):
        return np.column_stack([np.cos(angles), np.sin(angles)])

    base = at(np.array(PLANAR_ANGLES))
    third = PLANAR_ANGLES[2]
    for kind, extra in (("generic", base[:0]), ("duplicate", base[2:3]),
                        ("antiparallel", -base[2:3]),
                        ("pair1.5tol", at(np.array([third + 1.5 * sign_tol]))),
                        ("pair3tol", at(np.array([third + 3 * sign_tol])))):
        pts = np.vstack([base, extra])
        yield f"planar-{kind}-m2-N{len(pts)}", pts
    pts = np.array([1.0, 2.0, -1.0, 0.5, -4.0])[:, None] * [0.6, 0.8]
    yield f"planar-collinear-m2-N{len(pts)}", pts


def three_column_point_sets(np, sign_tol):
    """(label, points) for the sets on either side of the bound of _cells'
    three-column pass, which takes three-column sets of four or more points
    whose unit points have every pairwise cross product past 4 sign_tol and
    every third point past 2 sign_tol from the pair's plane, with a rounding
    term: THREE_COLUMN_POINTS scaled to unit rows (column maxima 1, so they
    are their own unit points up to rounding), alone and with a repeat of
    the third, its negation, a point in the plane of the fourth and fifth,
    or a point 1.5 or 3 sign_tol off the plane of the first two; and
    13 Gaussian points whose entries are scaled by 10^U(-20, 20), seed
    MIXED_SEED, whose rows the pass would get wrong without the rounding
    term."""
    base = np.array(THREE_COLUMN_POINTS, dtype=float)
    base /= np.sqrt((base * base).sum(axis=1, keepdims=True))
    coplanar = base[3] + base[4]
    for kind, extra in (("generic", base[:0]), ("duplicate", base[2:3]),
                        ("antiparallel", -base[2:3]),
                        ("coplanar", coplanar / np.sqrt(coplanar @ coplanar)),
                        ("plane1.5tol", [[np.cos(0.6), np.sin(0.6),
                                          1.5 * sign_tol]]),
                        ("plane3tol", [[np.cos(0.6), np.sin(0.6),
                                        3 * sign_tol]])):
        pts = np.vstack([base, extra])
        yield f"three-{kind}-m3-N{len(pts)}", pts
    rng = np.random.default_rng(MIXED_SEED)
    pts = rng.standard_normal((13, 3)) * 10.0 ** rng.uniform(-20, 20, (13, 3))
    yield f"three-mixed-m3-N{len(pts)}", pts


def partition_point_sets(hardness):
    """(label, points) for the lifted (G) and regressor (H) points of the
    Partition reduction of each multiset in PARTITIONS."""
    for s in PARTITIONS:
        data = hardness.partition_to_instance(
            hardness.PartitionInstance(s)).data
        for kind, pts in (("G", data.lifted()), ("H", data.x)):
            yield f"partition{len(s)}-{kind}-m{pts.shape[1]}-N{len(pts)}", pts


def tiny_point_sets(Dataset, datasets):
    """(label, points) for the lifted (G) and regressor (H) points of each
    tiny-regressor draw."""
    for label, data in tiny_draws(Dataset, datasets):
        for kind, pts in (("G", data.lifted()), ("H", data.x)):
            yield f"{label}-{kind}-m{pts.shape[1]}-N{len(pts)}", pts


def reduction_point_sets(hardness):
    """(label, points) for the lifted (G) and regressor (H) points of the
    Partition reduction of (2^k, 2^k + 2, 1, 1) for each k in
    REDUCTION_EXPONENTS."""
    for k in REDUCTION_EXPONENTS:
        data = hardness.partition_to_instance(hardness.PartitionInstance(
            (2 ** k, 2 ** k + 2, 1, 1))).data
        for kind, pts in (("G", data.lifted()), ("H", data.x)):
            yield f"reduction-k{k}-{kind}-m{pts.shape[1]}-N{len(pts)}", pts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                   help="checkout to import src/ and benchmark/ from")
    p.add_argument("--seed", type=int, default=113)
    p.add_argument("--rounds", type=int, default=8)
    args = p.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmark")]
    import numpy as np
    import workloads
    from switchreg import core, datasets, geometry, hardness, solvers
    from switchreg.core import ABSOLUTE, SQUARED, Dataset

    for name in WORKLOAD_NAMES:
        for r, jobs in enumerate(workloads.build_rounds(name, args.seed,
                                                        args.rounds)):
            for job in jobs:
                for method in job.methods:
                    out = attempt(workloads.call, job, method)
                    print(line(f"{name} r{r} {job.label} {method}", out))

    def solve_lines(label, data, n, seed):
        for loss in (SQUARED, ABSOLUTE):
            for method in solvers.SOLVER_METHODS:
                out = attempt(solvers.solve_instance, data, n, loss, method)
                print(line(f"{label} {loss.kind} {method}", out))
            for name, out in fit_outcomes(np, solvers, core, data, n, loss,
                                          seed):
                print(f"{label} {loss.kind} {name} {digest(out)}")

    for i, (label, data, n) in enumerate(sweep_instances(np, Dataset,
                                                              datasets)):
        solve_lines(label, data, n, [2026, i])

    for label, points in [*point_sets(np),
                          *planar_point_sets(np, core.SIGN_TOL),
                          *three_column_point_sets(np, core.SIGN_TOL),
                          *partition_point_sets(hardness),
                          *tiny_point_sets(Dataset, datasets),
                          *reduction_point_sets(hardness)]:
        out = attempt(geometry.enumerate_linear_dichotomies, points)
        print(f"{label} {digest(out)}")
        out = attempt(geometry.check_general_position, points)
        print(f"{label} gp {digest(out)}")

    # pools past the solvers' slice of 1,024 rows
    data = datasets.generate_instance(datasets.GeneratorSpec(
        n=2, d=3, N=40, noise_sigma=0.1, seed=0))[0]
    out = attempt(lambda: core.ModelSet(solvers.solve_mode_regression(
        data.x[:24], data.y[:24], ABSOLUTE)[None]))
    print(f"pool-d3-N24 absolute fit {digest(out)}")
    out = attempt(solvers.altmin_solve, data, 2, ABSOLUTE)
    print(line("gen0-n2-d3-N40 absolute altmin", out))
    # a subnormal regressor, whose one-point interpolant overflows
    data = Dataset(np.array(SUBNORMAL_X), np.array(SUBNORMAL_Y))
    for n in (1, 2):
        solve_lines(f"subnormal-n{n}-d2-N4", data, n, [2027, n])
    return 0


if __name__ == "__main__":
    sys.exit(main())
