"""Tests for the benchmark's own helpers.

    python3 -m pytest benchmark
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import percentile  # noqa: E402
from switchreg import hardness, solvers  # noqa: E402
from switchreg.core import SQUARED, Dataset  # noqa: E402
from switchreg.geometry import enumerate_linear_dichotomies  # noqa: E402


def test_percentile_is_nearest_rank_with_sample_count():
    assert percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)
    values = list(range(1, 101))
    p90, n = percentile(values, 90)
    assert n == 100
    assert sum(v > p90 for v in values) == 10
    assert percentile([5.0], 90) == (5.0, 1)
    with pytest.raises(ValueError):
        percentile([], 50)


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, solve=1, parent=parent, owner="",
                        end=end)


def test_self_time_is_span_minus_children():
    spans = [_span("enum", 0.0, 10.0),
             _span("refine", 1.0, 3.0, parent=0),
             _span("fit", 1.5, 2.0, parent=1),
             _span("refine", 4.0, 6.0, parent=0)]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 0.5, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("enum", 0.0, 10.0),
             _span("a", 1.0, 5.0, parent=0),
             _span("b", 4.0, 6.0, parent=0),
             _span("c", 9.0, 12.0, parent=0)]       # clipped to the parent
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_links_parents_and_owning_solver():
    tr = tracing.Tracer()
    outer = tr.begin("brute")
    inner = tr.begin("fit")
    tr.end(inner)
    tr.end(outer)
    lone = tr.begin("gp_check")
    tr.end(lone)
    assert [s.parent for s in tr.spans] == [None, 0, None]
    assert [s.owner for s in tr.spans] == ["brute", "brute", ""]
    assert all(s.end >= s.start for s in tr.spans)


def test_cover_count():
    assert tracing.cover_count(25, 3) == 602          # |G| at d=2, N=25
    assert tracing.cover_count(25, 2) == 50           # |H| at d=2, N=25
    assert tracing.cover_count(7, 1) == 2
    pts = np.random.default_rng(3).standard_normal((9, 3))
    assert len(enumerate_linear_dichotomies(pts)) == tracing.cover_count(9, 3)


def test_canonical_labelings_matches_brute_force():
    assert tracing.canonical_labelings(6, 2) == 2 ** 5
    assert tracing.canonical_labelings(4, 3) == 1 + 7 + 6
    assert tracing.canonical_labelings(3, 5) == 5     # Bell number B_3
    data = Dataset(np.arange(1.0, 6.0)[:, None], np.arange(5.0))
    rep = solvers.brute_force_solve(data, 3, SQUARED)
    assert rep.candidates_examined == tracing.canonical_labelings(5, 3)


def test_subset_sum_dp_matches_exhaustive_split():
    assert workloads.has_equal_split([1, 1])
    assert not workloads.has_equal_split([1, 2])
    assert not workloads.has_equal_split([2, 4, 1])   # odd total
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = [int(v) for v in rng.integers(1, 12, size=rng.integers(1, 7))]
        exhaustive = any(2 * sum(c) == sum(s)
                         for r in range(len(s) + 1)
                         for c in itertools.combinations(s, r))
        assert workloads.has_equal_split(s) == exhaustive, s


def test_rounds_are_seeded():
    a = workloads.build_rounds("grid-oracle", 7, 2)
    b = workloads.build_rounds("grid-oracle", 7, 2)
    c = workloads.build_rounds("grid-oracle", 8, 2)
    assert [j.data for r in a for j in r] == [j.data for r in b for j in r]
    assert [j.data for r in a for j in r] != [j.data for r in c for j in r]
    assert len(a[0]) == len(workloads.WORKLOADS["grid-oracle"])


def test_traced_counts_match_reports_and_names_are_restored():
    originals = {n: getattr(solvers, n) for n in
                 ("CandidateStream", "solve_mode_regression")}
    job = workloads.build_rounds("enum-gp", 0, 1)[0][0]
    tr = tracing.Tracer()
    with tracing.traced(tr, solvers, hardness):
        rep = workloads.call(job, "enum")
    totals = {}
    tracing.layer_totals(tr.spans, totals)
    layers = tracing.finish_totals(totals)
    assert layers["solvers.stream.combinations"] == rep.candidates_examined
    assert layers["solvers.eval.fit.calls"] > 0
    assert layers["geometry.cover_shortfall"] == 0
    for name, fn in originals.items():
        assert getattr(solvers, name) is fn


def test_missing_wrapped_name_fails_before_patching(monkeypatch):
    original = solvers.solve_mode_regression
    monkeypatch.delattr(solvers, "refine_alternate")
    with pytest.raises(AttributeError):
        with tracing.traced(tracing.Tracer(), solvers, hardness):
            pass
    assert solvers.solve_mode_regression is original


def test_check_job_flags_a_wrong_cost():
    job = workloads.build_rounds("grid-oracle", 0, 1)[0][-1]   # partition
    outcomes = {m: workloads.call(job, m) for m in job.methods}
    assert all(p is None for p in workloads.check_job(job, outcomes).values())
    rep = outcomes["brute"].report
    bad = solvers.SolveReport(rep.method, rep.cost + 1.0, rep.models,
                              rep.labeling, rep.candidates_examined,
                              rep.elapsed, rep.status)
    outcomes["brute"] = hardness.ThresholdDecision(
        outcomes["brute"].answer, bad.cost, bad.models, bad.labeling, bad)
    assert workloads.check_job(job, outcomes)["brute"][0] == "wrong"
