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
a call that raised hashes its exception's type and message. The lines cover
every call of every benchmark workload for the given rounds at the seed,
then a fixed sweep of random instances (n 1-3, d 1-3, both losses, Gaussian
and integer-grid data with zero regressors and repeated rows) solved by
every method whose budget admits it. Elapsed times are left out. BLAS
thread pools are pinned to one thread, as in benchmark/run.py.
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


def digest(outcome) -> str:
    """SHA-256 prefix of a report's result fields, or of an exception."""
    h = hashlib.sha256()
    if isinstance(outcome, Exception):
        h.update(f"{type(outcome).__name__}: {outcome}".encode())
        return "raised:" + h.hexdigest()[:16]
    report = getattr(outcome, "report", outcome)
    h.update(float(report.cost).hex().encode())
    h.update(report.models.w.tobytes())
    h.update(report.labeling.q.tobytes())
    h.update(repr(report.labeling.tie_set).encode())
    h.update(f"{report.status}|{report.candidates_examined}".encode())
    if report is not outcome:
        h.update(f"|answer={outcome.answer}".encode())
    return h.hexdigest()[:16]


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:             # the digest records what was raised
        return exc


def sweep_instances(np, Dataset):
    """(label, data, n) for the fixed random sweep."""
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
    from switchreg import solvers
    from switchreg.core import ABSOLUTE, SQUARED, Dataset

    for name in WORKLOAD_NAMES:
        for r, jobs in enumerate(workloads.build_rounds(name, args.seed,
                                                        args.rounds)):
            for job in jobs:
                for method in job.methods:
                    out = attempt(workloads.call, job, method)
                    print(f"{name} r{r} {job.label} {method} {digest(out)}")

    for label, data, n in sweep_instances(np, Dataset):
        for loss in (SQUARED, ABSOLUTE):
            for method in solvers.SOLVER_METHODS:
                if method == "brute" and n ** data.N > 20_000:
                    continue
                out = attempt(solvers.solve_instance, data, n, loss, method)
                print(f"{label} {loss.kind} {method} {digest(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
