"""tools/report_digest.py's digest: one line per outcome, which moves with
every result field it covers, so an empty diff of two checkouts' digests
means bit-identical reports."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from switchreg import (ABSOLUTE, SQUARED, Dataset, DichotomySet, Labeling,
                       PartitionInstance, brute_force_solve,
                       check_general_position, core, datasets,
                       decide_threshold, enumerate_linear_dichotomies,
                       geometry, hardness, partition_to_instance, solvers)

from conftest import exact_cell_count, report_digest, three_column_margins

digest = report_digest.digest
RECORD = Path(__file__).resolve().parent / "data" / "report_digest.txt"


def _report():
    x = np.array([[1.0], [2.0], [3.0], [1.0], [2.0]])
    y = np.array([1.0, 2.0, 3.0, -1.0, 0.5])
    return brute_force_solve(Dataset(x, y), 2, SQUARED)


def test_same_report_same_line():
    report = _report()
    assert digest(report) == digest(report) == digest(_report())
    assert len(digest(report)) == 16


def test_each_covered_field_moves_the_line():
    report = _report()
    ties = () if report.labeling.tie_set else (1,)
    changed = [
        dataclasses.replace(report, cost=np.nextafter(report.cost, np.inf)),
        dataclasses.replace(report, labeling=Labeling(report.labeling.q,
                                                      tie_set=ties)),
        dataclasses.replace(report, status="heuristic"),
    ]
    lines = {digest(report)} | {digest(r) for r in changed}
    assert len(lines) == 1 + len(changed)
    # elapsed is not a result: it leaves the line as it is
    assert digest(dataclasses.replace(report, elapsed=123.0)) == digest(report)


def test_decision_digests_its_answer():
    inst = partition_to_instance(PartitionInstance((1, 2, 3)))
    decision = decide_threshold(inst, method="brute")
    flipped = dataclasses.replace(decision, answer=not decision.answer)
    assert digest(decision) != digest(flipped)
    assert digest(decision) != digest(decision.report)
    assert digest(decision) == digest(dataclasses.replace(decision))


def test_position_check_digests_its_verdict():
    rep = check_general_position(np.array([[0.0, 0.0], [1.0, 0.0],
                                           [0.0, 1.0]]))
    flagged = check_general_position(np.array([[0.0, 0.0], [1.0, 1.0],
                                               [2.0, 2.0]]))
    assert rep.ok and not flagged.ok
    assert digest(rep) == digest(dataclasses.replace(rep))
    changed = [
        flagged,
        dataclasses.replace(rep, ok=False),
        dataclasses.replace(rep, violations=((1, 2, 3),)),
        dataclasses.replace(rep, sampled=True),
        dataclasses.replace(rep, checked_subsets=2),
    ]
    lines = {digest(rep)} | {digest(r) for r in changed}
    assert len(lines) == 1 + len(changed)


def test_report_lines_end_with_their_cost(monkeypatch, capsys):
    # the solve and decision lines end with the repr of their cost, and no
    # other line does
    report = _report()
    decision = decide_threshold(partition_to_instance(PartitionInstance(
        (1, 2, 3))), method="brute")
    for out, cost in ((report, report.cost), (decision, decision.report.cost)):
        assert report_digest.line("a b", out) == \
            f"a b {digest(out)} {float(cost)!r}"
    for out in (ValueError("x"), report.models, check_general_position(
            np.eye(2))):
        assert report_digest.line("a", out) == f"a {digest(out)}"
    # a shortened run of the script itself
    for name, value in (("SWEEP", 4), ("NEAR", range(0)),
                        ("TINY_SEEDS", range(0)), ("POINT_SETS", 2),
                        ("PARTITIONS", ((1, 2),)),
                        ("REDUCTION_EXPONENTS", (12,))):
        monkeypatch.setattr(report_digest, name, value)
    for var in report_digest.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert report_digest.main(["--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    valued = [text for text in lines if _is_cost(text.rsplit(" ", 1)[1])]
    assert len(valued) > len(lines) // 2
    assert not [text for text in valued if " gp " in text or " fit" in text]
    # it ends with the two fits past a slice, then the subnormal instance's
    # 8 lines per n and loss
    assert lines[-34].startswith("pool-d3-N24 absolute fit ")
    assert lines[-33].startswith("gen0-n2-d3-N40 absolute altmin ")
    assert [text.split(" ", 1)[0] for text in lines[-32:]] == \
        ["subnormal-n1-d2-N4"] * 16 + ["subnormal-n2-d2-N4"] * 16


def _is_cost(token):
    try:
        return repr(float(token)) == token
    except ValueError:                   # a digest
        return False


def test_exception_digests_as_raised():
    line = digest(ValueError("need n >= 1"))
    assert line.startswith("raised:")
    assert line == digest(ValueError("need n >= 1"))
    assert line != digest(ValueError("need n >= 2"))
    assert line != digest(RuntimeError("need n >= 1"))


def test_dichotomy_rows_digest_moves_with_every_sign():
    result = enumerate_linear_dichotomies(
        np.random.default_rng(3).standard_normal((6, 3)))
    line = digest(result)
    assert line == digest(enumerate_linear_dichotomies(
        np.random.default_rng(3).standard_normal((6, 3))))
    flipped = result.signs.copy()
    flipped[-1, -1] *= -1
    dropped = result.signs[:-1]
    lines = {line} | {digest(DichotomySet(rows, result.witnesses[:len(rows)]))
                      for rows in (flipped, dropped)}
    assert len(lines) == 3


def test_point_sweep_covers_the_degenerate_kinds():
    # Gaussian sets in m = 1-5, grids with a repeated point and a collinear
    # triple, and lifted-like sets with leading coordinates scaled by 1e-5
    # to 1e-20; those in m <= 3 (the rest take seconds) enumerate to a row
    # digest, not an exception
    sets = list(report_digest.point_sets(np))
    assert len(sets) == report_digest.POINT_SETS
    kinds = {(label.split("-", 1)[1].rsplit("-m", 1)[0], points.shape[1])
             for label, points in sets}
    assert kinds == {(kind, m) for kind in ("gauss", "grid", "1e-5", "1e-7",
                                            "1e-10", "1e-13", "1e-20")
                     for m in range(1, 6)}
    for label, points in sets:
        if "grid" in label:
            assert len(np.unique(points, axis=0)) < len(points), label
            if points.shape[1] > 1:
                a, b, c = points[0], points[1], points[-1]
                assert np.linalg.matrix_rank(np.vstack([b - a, c - a])) <= 1
        if "1e-" in label:
            scale = float(label.split("-", 1)[1].rsplit("-m", 1)[0])
            lead = points[[2, 4, 5], :max(1, points.shape[1] - 1)]
            assert 0 < np.abs(lead).max() < 10 * scale, label
        if points.shape[1] <= 3:
            assert not digest(enumerate_linear_dichotomies(
                points)).startswith("raised:"), label


def test_point_sweep_covers_the_planar_boundary():
    # two-column sets of 5 to 9 points whose least pairwise cross product
    # of unit points is far past 2 SIGN_TOL (generic), 0 (a repeat, an
    # antiparallel pair, all on one line) or 1.5 and 3 SIGN_TOL
    sets = dict(report_digest.planar_point_sets(np, core.SIGN_TOL))
    least = {}
    for label, points in sets.items():
        unit, _ = geometry._unit_points(points)
        a, b = unit.T
        cross = np.abs(a[:, None] * b - b[:, None] * a)
        least[label] = cross[~np.eye(len(unit), dtype=bool)].min() \
            / core.SIGN_TOL
        assert points.shape[1] == 2 and len(points) > 2, label
    assert list(least) == [
        "planar-generic-m2-N8", "planar-duplicate-m2-N9",
        "planar-antiparallel-m2-N9", "planar-pair1.5tol-m2-N9",
        "planar-pair3tol-m2-N9", "planar-collinear-m2-N5"]
    assert least["planar-generic-m2-N8"] > 1e9
    for label in ("duplicate", "antiparallel", "collinear"):
        assert least[[k for k in least if label in k][0]] == 0.0
    assert 1.4 < least["planar-pair1.5tol-m2-N9"] < 1.6
    assert 2.9 < least["planar-pair3tol-m2-N9"] < 3.1


def test_point_sweep_covers_the_three_column_boundary():
    # three-column sets of 8 to 13 points whose least pairwise cross product
    # of unit points, and least distance of a third point from a pair's
    # plane, are far past the pass's bound (generic), 0 (a repeat, an
    # antiparallel pair), near rounding (a coplanar triple) or 1.5 and 3
    # SIGN_TOL; and a mixed-magnitude set
    sets = dict(report_digest.three_column_point_sets(np, core.SIGN_TOL))
    least = {}
    for label, points in sets.items():
        pairs, thirds = three_column_margins(geometry._unit_points(points)[0])
        least[label] = (pairs.min() / core.SIGN_TOL,
                        np.nanmin(thirds) / core.SIGN_TOL)
        assert points.shape[1] == 3 and len(points) > 3, label
    assert list(least) == [
        "three-generic-m3-N8", "three-duplicate-m3-N9",
        "three-antiparallel-m3-N9", "three-coplanar-m3-N9",
        "three-plane1.5tol-m3-N9", "three-plane3tol-m3-N9",
        "three-mixed-m3-N13"]
    assert min(least["three-generic-m3-N8"]) > 1e9
    for label in ("duplicate", "antiparallel"):
        assert least[f"three-{label}-m3-N9"][0] == 0.0
    assert least["three-coplanar-m3-N9"][1] < 1e-3
    assert 1.4 < least["three-plane1.5tol-m3-N9"][1] < 1.6
    assert 2.9 < least["three-plane3tol-m3-N9"][1] < 3.1
    for label in ("coplanar", "plane1.5tol", "plane3tol"):
        assert least[f"three-{label}-m3-N9"][0] > 1e9
    mixed = np.abs(sets["three-mixed-m3-N13"])
    assert mixed.max() / mixed.min() > 1e30


def test_fit_lines_move_with_one_ulp_of_one_fit(monkeypatch):
    # fit_modes' and refine_alternate's lines: the same on a second run,
    # and one ulp added to one row of one _fit_masks call moves the line of
    # the call that made it, and no other: the first row is fit_modes'
    # first mode, the last is the last mode of the final refit of the
    # absolute-loss refinement
    rng = np.random.default_rng(8)
    data = Dataset(rng.standard_normal((7, 2)), rng.standard_normal(7))

    def lines():
        return [digest(out) for loss in (SQUARED, ABSOLUTE)
                for _, out in report_digest.fit_outcomes(
                    np, solvers, core, data, 2, loss, [2026, 0])]

    before = lines()
    assert before == lines()
    assert len(set(before)) == len(before) == 2 * (report_digest.FITS + 1)
    fit, calls = solvers._fit_masks, []

    def count(*args):
        calls.append(1)
        return fit(*args)

    monkeypatch.setattr(solvers, "_fit_masks", count)
    lines()
    for nudge, row, moved in ((1, 0, 0), (len(calls), -1, len(before) - 1)):
        calls.clear()

        def nudged(*args):
            calls.append(1)
            w = fit(*args)
            if len(calls) == nudge:
                w[row, 0] = np.nextafter(w[row, 0], np.inf)
            return w

        monkeypatch.setattr(solvers, "_fit_masks", nudged)
        after = lines()
        assert [a != b for a, b in zip(after, before)] == \
            [i == moved for i in range(len(before))], nudge


def test_sweep_ends_with_the_tiny_regressor_draws():
    # generator data at n 2, d 2, N 7 whose rows 2, 4 and 5 have regressors
    # scaled by 1e-13 and by 1e-20, one draw per seed and scale, after the
    # random and near-collinear sweeps
    tiny = [(label, data, n) for label, data, n in
            report_digest.sweep_instances(np, Dataset, datasets)
            if label.startswith("tiny")]
    assert len(tiny) == len(report_digest.TINY_SEEDS) * len(
        report_digest.TINY_SCALES)
    for label, data, n in tiny:
        scale = float(label.split("-", 1)[1].split("-n2")[0])
        assert (n, data.d, data.N) == (2, 2, 7), label
        small = np.abs(data.x).max(axis=1) < 10 * scale
        assert small.tolist() == [i in (2, 4, 5) for i in range(7)], label
        assert (data.x[[2, 4, 5]] != 0).all(), label


def test_sweep_ends_with_the_noiseless_limit_cases():
    # after the tiny-regressor draws, the noiseless solver's two known
    # limits at n 2: two one-point modes of a zero-cost fit on a rank-1
    # pair of regressors, and zero regressors, whose interpolants fit no
    # point
    sweep = list(report_digest.sweep_instances(np, Dataset, datasets))
    assert sweep[-3][0].startswith("tiny")
    (rank1, data1, n1), (zero, data0, n0) = sweep[-2:]
    assert (rank1, n1, zero, n0) == ("limit-rank1-n2-d2-N2", 2,
                                     "limit-zero-n2-d1-N3", 2)
    assert data1.x.tolist() == [[1.0, 1.0], [2.0, 2.0]]
    assert data1.y.tolist() == [1.0, 0.0]
    assert data0.x.tolist() == [[0.0]] * 3
    assert data0.y.tolist() == [1.0, 2.0, 3.0]


def test_point_sweep_ends_with_the_partition_sets():
    # the lifted (G) and regressor (H) points of the Partition reductions
    # of sizes 2-6, after the random point sets and before the
    # tiny-regressor sets; each reduction repeats every regressor, and
    # neither point set is in general position
    sets = list(report_digest.partition_point_sets(hardness))
    assert [len(s) for s in report_digest.PARTITIONS] == [2, 3, 4, 5, 6]
    assert len(sets) == 2 * len(report_digest.PARTITIONS)
    for s, (g, h) in zip(report_digest.PARTITIONS,
                         zip(sets[::2], sets[1::2])):
        data = partition_to_instance(PartitionInstance(s)).data
        d = len(s)
        assert g[0] == f"partition{d}-G-m{d + 1}-N{2 * d + 1}"
        assert h[0] == f"partition{d}-H-m{d}-N{2 * d + 1}"
        assert np.array_equal(g[1], data.lifted())
        assert np.array_equal(h[1], data.x)
        for label, points in (g, h):
            assert not check_general_position(points).ok, label
            if d <= 4:
                assert not digest(enumerate_linear_dichotomies(
                    points)).startswith("raised:"), label


def test_point_sweep_ends_with_the_tiny_regressor_sets():
    # after the Partition sets, the lifted (G) and regressor (H) points of
    # each tiny-regressor draw of the solve sweep. They are in general
    # position, so their
    # exact cell counts are Cover's, 2 sum_{k<m} C(N-1, k): 44 for G and 14
    # for H. The enumeration's own counts are what their lines record
    sets = list(report_digest.tiny_point_sets(Dataset, datasets))
    draws = [(label, data) for label, data, _ in
             report_digest.sweep_instances(np, Dataset, datasets)
             if label.startswith("tiny")]
    assert len(sets) == 2 * len(draws) == 2 * len(
        report_digest.TINY_SEEDS) * len(report_digest.TINY_SCALES)
    assert sets[0][0] == "tiny0-1e-13-G-m3-N7"
    for (label, data), g, h in zip(draws, sets[::2], sets[1::2]):
        stem = label.rsplit("-n2", 1)[0]
        assert (g[0], h[0]) == (f"{stem}-G-m3-N7", f"{stem}-H-m2-N7")
        assert np.array_equal(g[1], data.lifted())
        assert np.array_equal(h[1], data.x)
        assert exact_cell_count(g[1]) == 44, g[0]
        assert exact_cell_count(h[1]) == 14, h[0]


def test_point_sweep_ends_with_the_reduction_sets():
    # last, the lifted (G) and regressor (H) points of the Partition
    # reductions of (2^k, 2^k + 2, 1, 1), two sets per exponent. The
    # entries grow with k, the arrangements do not: every G set has 258
    # cells and every H set 30 by their exact counts. The enumeration's
    # own counts are what their lines record
    sets = list(report_digest.reduction_point_sets(hardness))
    assert report_digest.REDUCTION_EXPONENTS == (12, 13, 16, 24, 40)
    assert len(sets) == 2 * len(report_digest.REDUCTION_EXPONENTS)
    for k, g, h in zip(report_digest.REDUCTION_EXPONENTS, sets[::2],
                       sets[1::2]):
        data = partition_to_instance(PartitionInstance(
            (2 ** k, 2 ** k + 2, 1, 1))).data
        assert (g[0], h[0]) == (f"reduction-k{k}-G-m5-N9",
                                f"reduction-k{k}-H-m4-N9")
        assert np.array_equal(g[1], data.lifted())
        assert np.array_equal(h[1], data.x)
        assert np.abs(g[1]).max() == 2 ** k + 2
        assert exact_cell_count(g[1]) == 258, g[0]
        assert exact_cell_count(h[1]) == 30, h[0]
        for label, points in (g, h):
            assert not check_general_position(points).ok, label


def _by_label(lines):
    """label -> (digest, cost) of digest lines, the cost None on a line
    that has none."""
    out = {}
    for text in lines:
        head, last = text.rsplit(" ", 1)
        if _is_cost(last):
            head, tag = head.rsplit(" ", 1)
            out[head] = (tag, last)
        else:
            out[head] = (last, None)
    return out


def test_committed_digest_is_reproduced(monkeypatch, capsys):
    # tests/data/report_digest.txt is the output of the command on its
    # second header line, made under the numpy on its first; the command
    # run here must print it line for line. A moved line is listed with
    # its old and new digest and cost. A change that moves lines commits
    # the regenerated file: the two header lines, then the command's output
    recorded = RECORD.read_text().splitlines()
    (version, command), recorded = recorded[:2], recorded[2:]
    assert version.startswith("# numpy ")
    assert command.startswith("# python3 tools/report_digest.py ")
    for var in report_digest.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert report_digest.main(command.split()[3:]) == 0
    lines = capsys.readouterr().out.splitlines()
    if lines != recorded:
        old, new = _by_label(recorded), _by_label(lines)
        def show(entry):                 # digest, then cost if any
            return "absent" if entry is None else " ".join(filter(None, entry))

        moved = [f"{label}: {show(old.get(label))} -> {show(new.get(label))}"
                 for label in dict.fromkeys([*old, *new])
                 if old.get(label) != new.get(label)]
        pytest.fail(f"{len(moved)} digest lines moved (recorded under "
                    f"{version[2:]}, run under numpy {np.__version__}):\n"
                    + "\n".join(moved or ["none; the order changed"]))
