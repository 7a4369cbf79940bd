"""Command-line entry points.

Subcommands: generate, solve, reduce-partition, extract-partition, bench.
Every subcommand prints a machine-readable JSON report on stdout and a
one-line human summary on stderr.

Exit codes: 0 success (or decision answer yes), 1 infeasible or decision
answer no (or an invalid certificate in extract-partition), 2 usage or
input error, 3 a budget exceeded.

Settings: solve's --seed and --restarts (bench runs altmin at the default
10 restarts) and one environment variable, a resource limit:
  SWITCHREG_CANDIDATE_BUDGET  work budget of every exact solver
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import bench_scaling
from .core import (SQUARED, ZERO_TOL, Dataset, LossModel, ModelSet,
                   empirical_cost)
from .datasets import (GeneratorSpec, _read_json, generate_instance,
                       load_dataset_csv, load_dataset_json, save_dataset_csv,
                       save_dataset_json)
from .hardness import (CertificateError, DecisionInstance, PartitionInstance,
                       decide_threshold, extract_partition,
                       partition_to_instance)
from .solvers import (CapsExceededError, SOLVER_METHODS, SolveReport,
                      SolverConfig, solve_instance)

__all__ = ["main"]


def _config(args) -> SolverConfig:
    """The --seed and --restarts flags plus SWITCHREG_CANDIDATE_BUDGET."""
    base = SolverConfig()
    raw = os.environ.get("SWITCHREG_CANDIDATE_BUDGET")
    try:
        budget = base.candidate_budget if raw is None else int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError("environment variable SWITCHREG_CANDIDATE_BUDGET is "
                         f"not a positive int: {raw!r}")
    return SolverConfig(restarts=getattr(args, "restarts", base.restarts),
                        seed=args.seed, candidate_budget=budget)


def _load_data(path: str) -> tuple[Dataset, int | None]:
    """Dataset plus the mode count if the file carries one."""
    if path.endswith(".json"):
        bundle = load_dataset_json(path)
        return bundle.data, bundle.n
    return load_dataset_csv(path), None


def _emit(doc: dict, summary: str) -> None:
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _report_doc(report: SolveReport, data: Dataset, loss: LossModel) -> dict:
    """Serialize a SolveReport under the loss its cost is in, re-validating
    the cost first.

    The noiseless solver reports squared-loss cost whatever loss was asked
    for. The recomputation guards against any drift between the solver's
    bookkeeping and the (models, labeling) pair it returns.
    """
    if report.method == "noiseless":
        loss = SQUARED
    recomputed = empirical_cost(data, report.models, report.labeling, loss)
    if not (abs(recomputed - report.cost) <= ZERO_TOL * (1 + abs(report.cost))):
        raise RuntimeError(
            f"report integrity check failed: cost {report.cost!r} vs "
            f"recomputed {recomputed!r}")
    return {
        "method": report.method,
        "loss": loss.kind,
        "cost": report.cost,
        "labels": [int(v) for v in report.labeling.q],
        "models": [[float(v) for v in row] for row in report.models.w],
        "candidates_examined": int(report.candidates_examined),
        "elapsed_ms": report.elapsed * 1000.0,
        "status": report.status,
        "warnings": list(report.warnings),
    }


def _parse_multiset(args) -> PartitionInstance:
    if args.set is not None:
        raw = args.set
    else:
        with open(args.set_file) as f:
            raw = f.readline()
    parts = raw.replace(",", " ").split()
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"multiset entries must be integers, got {parts}")
    return PartitionInstance(tuple(values))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_generate(args) -> int:
    if args.with_truth and not args.out.endswith(".json"):
        raise ValueError("--with-truth needs a .json --out; a CSV holds no "
                         "ground truth")
    spec = GeneratorSpec(n=args.n, d=args.d, N=args.N,
                         noise_sigma=args.noise_sigma, seed=args.seed,
                         mode_process=args.mode_process, p_stay=args.p_stay,
                         x_distribution=args.x_distribution)
    data, models, labeling = generate_instance(spec)
    if not args.with_truth:
        models = labeling = None
    if args.out.endswith(".json"):
        save_dataset_json(args.out, data, n=spec.n, seed=spec.seed,
                          models=models, labeling=labeling)
    else:
        save_dataset_csv(args.out, data)
    doc = {"out": args.out, "n": spec.n, "d": spec.d, "N": spec.N,
           "noise_sigma": spec.noise_sigma, "seed": spec.seed,
           "mode_process": spec.mode_process,
           "x_distribution": spec.x_distribution}
    _emit(doc, f"wrote {spec.N} points (d={spec.d}, n={spec.n}) to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    data, file_n = _load_data(args.data)
    n = args.n if args.n is not None else file_n
    if n is None:
        raise ValueError("--n is required (the dataset file carries no mode count)")
    loss = LossModel(args.loss)
    cfg = _config(args)
    if args.epsilon is None:
        report = solve_instance(data, n, loss, args.method, cfg)
    else:
        # Decision mode: delegate so method validation (no heuristic "no"
        # answers) stays in one place.
        decision = decide_threshold(
            DecisionInstance(data=data, n=n, epsilon=args.epsilon),
            loss=loss, method=args.method, cfg=cfg)
        report = decision.report
    doc = _report_doc(report, data, loss)
    summary = (f"cost={report.cost:.6g} method={report.method} "
               f"status={report.status}")
    if args.epsilon is None:
        _emit(doc, f"{summary} candidates={report.candidates_examined} "
                   f"elapsed={report.elapsed * 1000.0:.1f}ms")
        return 1 if report.status == "infeasible" else 0
    doc["epsilon"] = args.epsilon
    doc["answer"] = bool(decision.answer)
    _emit(doc, f"answer={'yes' if decision.answer else 'no'} {summary}")
    return 0 if decision.answer else 1


def _cmd_reduce_partition(args) -> int:
    p = _parse_multiset(args)
    inst = partition_to_instance(p)
    save_dataset_json(args.out, inst.data, n=inst.n)
    doc = {"set": list(p.s), "total": p.total, "out": args.out,
           "n": inst.n, "d": inst.data.d, "N": inst.data.N,
           "epsilon": inst.epsilon}
    _emit(doc, f"reduced multiset of {p.d} entries (total {p.total}) to "
               f"{inst.data.N} points in dimension {inst.data.d}; "
               f"wrote {args.out}")
    return 0


def _report_models(path: str) -> ModelSet:
    """The models of a solve report: a JSON object whose 'models' is a list
    of equal-length lists of JSON numbers. Anything else raises ValueError."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "models" not in doc:
        raise ValueError(f"{path}: not a report with a 'models' field")
    rows = doc["models"]
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) and len(row) == len(rows[0])
                    and all(type(v) in (int, float) for v in row)
                    for row in rows)):
        raise ValueError(f"{path}: 'models' must be a list of equal-length "
                         f"lists of numbers, got {rows!r}")
    try:
        return ModelSet(np.array(rows, dtype=float))
    except (OverflowError, ValueError) as exc:        # huge or not finite
        raise ValueError(f"{path}: bad 'models': {exc}") from exc


def _cmd_extract_partition(args) -> int:
    p = _parse_multiset(args)
    subset = extract_partition(_report_models(args.report), p)
    out = {"set": list(p.s), "subset": subset,
           "subset_sum": sum(subset),
           "complement_sum": p.total - sum(subset)}
    _emit(out, f"balanced split: {subset} vs complement, "
               f"each summing to {sum(subset)}")
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.replace(",", " ").split()]
    result = bench_scaling(args.method, sizes, n=args.n, d=args.d,
                           noise_sigma=args.noise_sigma, seed=args.seed,
                           repeats=args.repeats, loss=LossModel(args.loss),
                           cfg=_config(args))
    doc = {"method": result.method, "sizes": list(result.sizes),
           "times_s": list(result.times),
           "fitted_exponent": result.fitted_exponent,
           "complete": result.complete, "warnings": list(result.warnings)}
    _emit(doc, f"method={result.method} fitted_exponent="
               f"{result.fitted_exponent:.2f} over N={list(result.sizes)}"
               + ("" if result.complete else " (truncated by a budget)"))
    return 0


def _add_multiset_args(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", help="comma-separated positive integers")
    grp.add_argument("--set-file", help="file whose first line is the multiset")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="switchreg",
        description="Exact and heuristic solvers for switching linear regression.")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="draw a random instance and save it")
    g.add_argument("--n", type=int, required=True, help="number of modes")
    g.add_argument("--d", type=int, required=True, help="regressor dimension")
    g.add_argument("--N", type=int, required=True, help="number of points")
    g.add_argument("--noise-sigma", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mode-process", choices=["iid-uniform", "markov"],
                   default="iid-uniform")
    g.add_argument("--p-stay", type=float, default=0.8)
    g.add_argument("--x-distribution", choices=["gaussian", "uniform_box"],
                   default="gaussian")
    g.add_argument("--with-truth", action="store_true",
                   help="embed ground truth (JSON output only)")
    g.add_argument("--out", required=True, help=".csv or .json path")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="solve a dataset file")
    s.add_argument("data", help=".csv or .json dataset")
    s.add_argument("--n", type=int, default=None, help="number of modes")
    s.add_argument("--method", choices=list(SOLVER_METHODS), default="enum")
    s.add_argument("--loss", choices=["squared", "absolute"], default="squared")
    s.add_argument("--epsilon", type=float, default=None,
                   help="decision mode: answer whether optimal cost <= epsilon")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--restarts", type=int, default=SolverConfig.restarts)
    s.set_defaults(func=_cmd_solve)

    r = sub.add_parser("reduce-partition",
                       help="compile a multiset into a regression dataset")
    _add_multiset_args(r)
    r.add_argument("--out", required=True, help=".json dataset path")
    r.set_defaults(func=_cmd_reduce_partition)

    e = sub.add_parser("extract-partition",
                       help="read the balanced split off a solve report")
    _add_multiset_args(e)
    e.add_argument("--report", required=True,
                   help="JSON report from `switchreg solve`")
    e.set_defaults(func=_cmd_extract_partition)

    b = sub.add_parser("bench", help="fit the runtime scaling exponent")
    b.add_argument("--method", choices=list(SOLVER_METHODS), default="enum")
    b.add_argument("--sizes", required=True, help="comma-separated N values")
    b.add_argument("--n", type=int, default=2)
    b.add_argument("--d", type=int, default=1)
    b.add_argument("--noise-sigma", type=float, default=0.1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--loss", choices=["squared", "absolute"], default="squared")
    b.set_defaults(func=_cmd_bench)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapsExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:         # JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
