"""Command-line interface: subcommands, report shape, exit codes."""

import dataclasses
import inspect
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from switchreg import (ABSOLUTE, SQUARED, Dataset, Labeling, ModelSet,
                       SolverConfig, empirical_cost, load_dataset_csv,
                       load_dataset_json)
from switchreg import bench, cli
from switchreg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
REPORT_FIELDS = {"method", "loss", "cost", "labels", "models",
                 "candidates_examined", "elapsed_ms", "status", "warnings"}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_writes_csv(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, stdout, stderr = run(capsys, "generate", "--n", "2", "--d", "1",
                               "--N", "10", "--noise-sigma", "0.1",
                               "--seed", "3", "--out", str(out))
    assert code == 0
    assert out.exists()
    doc = json.loads(stdout)
    assert doc["N"] == 10 and doc["out"] == str(out)
    assert "wrote 10 points" in stderr


def test_generate_truth_needs_json(tmp_path, capsys):
    # a CSV used to be written without the ground truth, and exit 0
    base = ["generate", "--n", "2", "--d", "1", "--N", "6", "--seed", "1"]
    csv_path = tmp_path / "d.csv"
    code, _, stderr = run(capsys, *base, "--with-truth", "--out", str(csv_path))
    assert code == 2
    assert "--with-truth" in stderr
    assert not csv_path.exists()
    for truth in (True, False):
        json_path = tmp_path / f"d{truth}.json"
        code, _, _ = run(capsys, *base, *["--with-truth"] * truth,
                         "--out", str(json_path))
        assert code == 0
        bundle = load_dataset_json(json_path)
        assert (bundle.models is not None) == truth
        assert (bundle.labeling is not None) == truth


def test_header_only_csv_is_usage_error(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    data_path.write_text("x1,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_dataset_csv(data_path)
    code, _, stderr = run(capsys, "solve", str(data_path), "--n", "2")
    assert code == 2
    assert f"{data_path}: no data rows" in stderr


def test_empty_json_dataset_is_usage_error(tmp_path, capsys):
    # N = 0 used to reach Dataset and fail on the shape of an empty x
    data_path = tmp_path / "d.json"
    data_path.write_text('{"d": 1, "N": 0, "x": [], "y": []}')
    with pytest.raises(ValueError, match="no data rows"):
        load_dataset_json(data_path)
    code, _, stderr = run(capsys, "solve", str(data_path), "--n", "2")
    assert code == 2
    assert f"{data_path}: no data rows" in stderr


def test_solve_report_shape_and_integrity(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "10",
        "--noise-sigma", "0.1", "--seed", "3", "--out", str(data_path))
    code, stdout, _ = run(capsys, "solve", str(data_path), "--n", "2",
                          "--method", "enum")
    assert code == 0
    doc = json.loads(stdout)
    assert REPORT_FIELDS <= set(doc)
    assert doc["method"] == "enum" and doc["status"] == "optimal"
    assert doc["loss"] == "squared"
    # the printed numbers must reproduce the printed cost
    x = np.loadtxt(data_path, delimiter=",", skiprows=1, usecols=[0])[:, None]
    y = np.loadtxt(data_path, delimiter=",", skiprows=1, usecols=[1])
    recomputed = empirical_cost(Dataset(x, y),
                                ModelSet(np.array(doc["models"])),
                                Labeling(np.array(doc["labels"])), SQUARED)
    assert abs(recomputed - doc["cost"]) <= 1e-9


def test_solve_three_modes_certified(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "3", "--d", "1", "--N", "7",
        "--noise-sigma", "0.1", "--seed", "2", "--out", str(data_path))
    code, stdout, _ = run(capsys, "solve", str(data_path), "--n", "3")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["status"] == "optimal" and doc["warnings"] == []
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(data_path), "--n", "3", "--no-check-position"])
    assert exc.value.code == 2


@pytest.mark.parametrize("method,epsilon,loss", [
    ("noiseless", None, "squared"), ("noiseless", "0", "squared"),
    ("enum", None, "absolute")], ids=["noiseless", "noiseless-decision", "enum"])
def test_report_names_the_loss_of_its_cost(tmp_path, capsys, method, epsilon,
                                          loss):
    # noiseless costs are squared whatever --loss says; the report says so
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "8",
        "--noise-sigma", "0.1", "--seed", "5", "--out", str(data_path))
    argv = ["solve", str(data_path), "--n", "2", "--method", method,
            "--loss", "absolute"]
    if epsilon is not None:
        argv += ["--epsilon", epsilon]
    code, stdout, _ = run(capsys, *argv)
    assert code == (0 if method == "enum" else 1)
    doc = json.loads(stdout)
    assert doc["loss"] == loss
    data = load_dataset_csv(data_path)
    models, labels = ModelSet(np.array(doc["models"])), Labeling(
        np.array(doc["labels"]))
    costs = {lm.kind: empirical_cost(data, models, labels, lm)
             for lm in (SQUARED, ABSOLUTE)}
    assert costs[loss] == pytest.approx(doc["cost"], rel=1e-12, abs=1e-15)
    assert abs(costs[loss] - costs[({"squared", "absolute"} - {loss}).pop()]) \
        > 1e-3


def test_solve_json_dataset_carries_mode_count(tmp_path, capsys):
    data_path = tmp_path / "d.json"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "8",
        "--noise-sigma", "0.1", "--seed", "1", "--out", str(data_path))
    code, stdout, _ = run(capsys, "solve", str(data_path))
    assert code == 0
    assert json.loads(stdout)["method"] == "enum"


def test_solve_missing_mode_count_is_usage_error(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "8",
        "--out", str(data_path))
    code, _, stderr = run(capsys, "solve", str(data_path))
    assert code == 2
    assert "--n is required" in stderr


def test_solve_deterministic_output(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "9",
        "--noise-sigma", "0.2", "--seed", "5", "--out", str(data_path))
    _, out1, _ = run(capsys, "solve", str(data_path), "--n", "2")
    _, out2, _ = run(capsys, "solve", str(data_path), "--n", "2")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
    assert d1 == d2


def test_decision_pipeline_yes(tmp_path, capsys):
    inst_path = tmp_path / "p.json"
    code, stdout, _ = run(capsys, "reduce-partition", "--set", "1,2,3",
                          "--out", str(inst_path))
    assert code == 0
    assert json.loads(stdout)["N"] == 7

    code, report_out, stderr = run(capsys, "solve", str(inst_path),
                                   "--epsilon", "0", "--method", "brute")
    assert code == 0
    doc = json.loads(report_out)
    assert doc["answer"] is True and doc["epsilon"] == 0.0
    assert "answer=yes" in stderr

    report_path = tmp_path / "report.json"
    report_path.write_text(report_out)
    code, ext_out, _ = run(capsys, "extract-partition", "--set", "1,2,3",
                           "--report", str(report_path))
    assert code == 0
    ext = json.loads(ext_out)
    assert ext["subset_sum"] == ext["complement_sum"] == 3


def test_decision_pipeline_no(tmp_path, capsys):
    inst_path = tmp_path / "p.json"
    run(capsys, "reduce-partition", "--set", "1,1,1", "--out", str(inst_path))
    code, stdout, stderr = run(capsys, "solve", str(inst_path),
                               "--epsilon", "0", "--method", "brute")
    assert code == 1
    assert json.loads(stdout)["answer"] is False
    assert "answer=no" in stderr


def test_multiset_from_file(tmp_path, capsys):
    set_path = tmp_path / "s.txt"
    set_path.write_text("2, 4, 6\n")
    inst_path = tmp_path / "p.json"
    code, stdout, _ = run(capsys, "reduce-partition", "--set-file",
                          str(set_path), "--out", str(inst_path))
    assert code == 0
    assert json.loads(stdout)["set"] == [2, 4, 6]


def test_extract_invalid_certificate_exits_one(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    report_path.write_text(json.dumps({"models": [[0.5, 0.5, 0.5],
                                                  [0.5, 0.5, 0.5]]}))
    code, _, stderr = run(capsys, "extract-partition", "--set", "1,2,3",
                          "--report", str(report_path))
    assert code == 1
    assert "certificate" in stderr


@pytest.mark.parametrize("report", [
    '{"models": {"a": 1}}', "5", '{"models": [[true, false], [false, true]]}',
    '{"models": [[1, 0, 1], [0, 1]]}', '{"models": [["1", "0", "1"]]}',
    '{"models": []}', '{"labels": [1, 2]}',
    '{"models": [[1, 0, 1], [0, 1, %d]]}' % 10 ** 400,
    '{"models": [[1, 0, 1], [0, 1, NaN]]}'],
    ids=["dict", "number", "bools", "ragged", "strings", "empty",
         "no-models", "huge-int", "nan"])
def test_extract_malformed_report_is_usage_error(tmp_path, capsys, report):
    report_path = tmp_path / "r.json"
    report_path.write_text(report)
    code, _, stderr = run(capsys, "extract-partition", "--set", "1,2,3",
                          "--report", str(report_path))
    assert code == 2
    assert str(report_path) in stderr


def test_heuristic_decision_is_usage_error(tmp_path, capsys):
    inst_path = tmp_path / "p.json"
    run(capsys, "reduce-partition", "--set", "1,2", "--out", str(inst_path))
    code, _, stderr = run(capsys, "solve", str(inst_path),
                          "--epsilon", "0", "--method", "altmin")
    assert code == 2
    assert "heuristic" in stderr


def test_caps_exit_code(tmp_path, capsys, monkeypatch):
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "12",
        "--noise-sigma", "0.1", "--out", str(data_path))
    monkeypatch.setenv("SWITCHREG_CANDIDATE_BUDGET", "1000")
    code, _, stderr = run(capsys, "solve", str(data_path), "--n", "2",
                          "--method", "brute")
    assert code == 3
    assert "2^12 labelings exceed the budget 1000" in stderr


def test_brute_past_float_range_exits_3(tmp_path, capsys):
    # 2^1100 labelings overflowed a float count: exit 1 and a traceback
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "1100",
        "--out", str(data_path))
    code, _, stderr = run(capsys, "solve", str(data_path), "--n", "2",
                          "--method", "brute")
    assert code == 3
    assert "2^1100 labelings exceed the budget 2000000" in stderr


def test_brute_budget_is_not_read(tmp_path, capsys, monkeypatch):
    # SWITCHREG_BRUTE_BUDGET used to set brute's own budget; at 1000 brute
    # refused these 2^10 labelings
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "10",
        "--noise-sigma", "0.1", "--seed", "5", "--out", str(data_path))
    monkeypatch.setenv("SWITCHREG_BRUTE_BUDGET", "1000")
    code, stdout, _ = run(capsys, "solve", str(data_path), "--n", "2",
                          "--method", "brute")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["status"] == "optimal"
    assert doc["candidates_examined"] == 2 ** 9


def test_env_restart_override(tmp_path, capsys):
    # --restarts is the one source of the restart count
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "10",
        "--noise-sigma", "0.1", "--out", str(data_path))
    _, stdout, _ = run(capsys, "solve", str(data_path), "--n", "2",
                       "--method", "altmin", "--restarts", "5")
    assert json.loads(stdout)["candidates_examined"] == 5
    # --restarts 0 is refused, not read as unset
    code, _, stderr = run(capsys, "solve", str(data_path), "--n", "2",
                          "--method", "altmin", "--restarts", "0")
    assert code == 2
    assert "restarts" in stderr


def test_bad_env_value_is_usage_error(tmp_path, capsys, monkeypatch):
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "8",
        "--out", str(data_path))
    monkeypatch.setenv("SWITCHREG_CANDIDATE_BUDGET", "x")
    code, _, stderr = run(capsys, "solve", str(data_path), "--n", "2")
    assert code == 2
    assert "SWITCHREG_CANDIDATE_BUDGET" in stderr


def test_restarts_variable_is_not_read(tmp_path, capsys, monkeypatch):
    # SWITCHREG_RESTARTS used to set altmin's restarts when --restarts was
    # left out; at 3 altmin examined 3
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "10",
        "--noise-sigma", "0.1", "--out", str(data_path))
    monkeypatch.setenv("SWITCHREG_RESTARTS", "3")
    code, stdout, _ = run(capsys, "solve", str(data_path), "--n", "2",
                          "--method", "altmin")
    assert code == 0
    assert json.loads(stdout)["candidates_examined"] == 10


def test_zero_tol_variable_is_not_read(tmp_path, capsys, monkeypatch):
    # SWITCHREG_ZERO_TOL used to move the zero-cost threshold; at 0.1
    # noiseless certified this noisy file optimal at cost 0.00767482
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "8",
        "--noise-sigma", "0.1", "--seed", "5", "--out", str(data_path))
    monkeypatch.setenv("SWITCHREG_ZERO_TOL", "x")
    code, _, _ = run(capsys, "solve", str(data_path), "--n", "2")
    assert code == 0
    monkeypatch.setenv("SWITCHREG_ZERO_TOL", "0.1")
    code, stdout, _ = run(capsys, "solve", str(data_path), "--n", "2",
                          "--method", "noiseless")
    doc = json.loads(stdout)
    assert code == 1
    assert doc["status"] == "infeasible"
    assert doc["cost"] == pytest.approx(0.0848078, rel=1e-5)


def test_sign_margin_is_not_settable(tmp_path, capsys, monkeypatch):
    # SWITCHREG_SIGN_TOL used to move the strict-sign margin; at 0.3 enum
    # lost dichotomies and said optimal at 0.0457751 on this file
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "8",
        "--noise-sigma", "0.1", "--seed", "5", "--out", str(data_path))
    monkeypatch.setenv("SWITCHREG_SIGN_TOL", "0.3")
    docs = {}
    for method in ("enum", "brute"):
        code, stdout, _ = run(capsys, "solve", str(data_path), "--n", "2",
                              "--method", method)
        assert code == 0
        docs[method] = json.loads(stdout)
    assert docs["enum"]["status"] == "optimal"
    assert abs(docs["enum"]["cost"] - docs["brute"]["cost"]) <= 1e-9
    assert docs["brute"]["cost"] == pytest.approx(0.00603992, rel=1e-6)


def test_tie_margin_is_not_settable(tmp_path, capsys, monkeypatch):
    # SWITCHREG_TIE_TOL used to widen the tie margin; at 1e-3 noiseless
    # said infeasible at cost 9.14421e-05 on this zero-noise file
    data_path = tmp_path / "g0.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "8", "--seed", "0",
        "--out", str(data_path))
    monkeypatch.setenv("SWITCHREG_TIE_TOL", "1e-3")
    code, stdout, _ = run(capsys, "solve", str(data_path), "--n", "2",
                          "--method", "noiseless")
    doc = json.loads(stdout)
    assert code == 0
    assert doc["status"] == "optimal" and doc["cost"] == 0.0


def _config_variables():
    """The SWITCHREG_* names in the README table, cli's docstring and
    cli._config."""
    table = README.read_text().split("## Configuration", 1)[1].split(
        "\n## ", 1)[0]
    return (set(re.findall(r"^\| `(SWITCHREG_\w+)`", table, re.M)),
            set(re.findall(r"SWITCHREG_\w+", cli.__doc__)),
            set(re.findall(r"SWITCHREG_\w+", inspect.getsource(cli._config))))


def test_environment_variables_listed_once(tmp_path, capsys, monkeypatch):
    documented, docstring, read = _config_variables()
    assert documented == docstring == read == {"SWITCHREG_CANDIDATE_BUDGET"}
    # _config is the only reader of the environment
    assert inspect.getsource(cli).count("os.environ") == 1
    assert "getenv" not in inspect.getsource(cli)
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "restarts", "seed", "candidate_budget"]
    # every documented variable is read: a malformed value is a usage error
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "6",
        "--out", str(data_path))
    for var in sorted(documented):
        monkeypatch.setenv(var, "x")
        code, _, stderr = run(capsys, "solve", str(data_path), "--n", "2")
        assert code == 2, var
        assert var in stderr
        monkeypatch.delenv(var)


@pytest.mark.parametrize("field,value,named", [
    ("n", "2", "'n'"), ("n", 2.5, "'n'"), ("n", True, "'n'"),
    ("x", [1, 2], "x row 1"), ("y", 3, "'y'"), ("true_w", 3, "'true_w'"),
    ("true_labels", [None, 1], "'true_labels'")])
def test_malformed_json_dataset_is_usage_error(tmp_path, capsys, field,
                                               value, named):
    data_path = tmp_path / "d.json"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "2",
        "--out", str(data_path))
    doc = json.loads(data_path.read_text())
    doc[field] = value
    data_path.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "solve", str(data_path))
    assert code == 2
    assert str(data_path) in stderr and named in stderr


def test_missing_file_is_usage_error(capsys):
    code, _, stderr = run(capsys, "solve", "/nonexistent/x.csv", "--n", "2")
    assert code == 2


def test_unknown_method_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "x.csv", "--method", "simplex"])
    assert exc.value.code == 2


def test_bench_subcommand(capsys):
    code, stdout, stderr = run(capsys, "bench", "--method", "altmin",
                               "--sizes", "40,80", "--repeats", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["sizes"] == [40, 80]
    assert doc["complete"] is True
    assert "fitted_exponent" in doc


def test_bench_past_float_range_truncates_the_ladder(capsys):
    code, stdout, _ = run(capsys, "bench", "--method", "brute",
                          "--sizes", "8,10,1100", "--repeats", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["sizes"] == [8, 10]
    assert doc["complete"] is False
    assert doc["warnings"] == [
        "N=1100: 2^1100 labelings exceed the budget 2000000"]


def test_bench_zero_repeats_is_usage_error(capsys):
    code, _, stderr = run(capsys, "bench", "--method", "altmin",
                          "--sizes", "40,80", "--repeats", "0")
    assert code == 2
    assert "repeats" in stderr


def test_bench_repeated_size_is_usage_error_with_no_solve(monkeypatch, capsys):
    # the sizes are checked before any instance is solved or any slope fitted
    def refuse(*args):
        raise AssertionError("solved before the sizes were checked")

    monkeypatch.setattr(bench, "solve_instance", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, stderr = run(capsys, "bench", "--method", "brute",
                              "--sizes", "10,10", "--repeats", "1")
    assert code == 2
    assert "sizes must be strictly increasing" in stderr


def _readme_cli_examples():
    """The README's CLI examples: (commands, shown output) per code block
    whose lines start with `$ switchreg`."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"^```\n(\$ switchreg .*?)^```", section,
                            re.M | re.S):
        lines = block.splitlines()
        commands = [line[2:] for line in lines if line.startswith("$ ")]
        examples.append((commands, "\n".join(lines[len(commands):])))
    return examples


def _shows(shown, actual):
    """Whether actual matches a value the README shows, floats to 1e-9."""
    if isinstance(shown, float):
        return actual == pytest.approx(shown, rel=1e-9, abs=1e-12)
    if isinstance(shown, list):
        return (isinstance(actual, list) and len(actual) == len(shown)
                and all(map(_shows, shown, actual)))
    return shown == actual


# fields that are measurements, so the README's values are examples only
MEASURED = {"elapsed_ms", "times_s", "fitted_exponent"}


README_EXAMPLES = _readme_cli_examples()


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)),
                         ids=[commands[-1].split()[1]
                              for commands, _ in README_EXAMPLES])
def test_readme_cli_examples(tmp_path, capsys, monkeypatch, index):
    # later examples read the files earlier ones write, so run those first
    monkeypatch.chdir(tmp_path)
    for commands, _ in README_EXAMPLES[:index + 1]:
        for command in commands:
            argv = shlex.split(command)[1:]
            target = None
            if ">" in argv:
                argv, target = argv[:argv.index(">")], argv[-1]
            code, stdout, stderr = run(capsys, *argv)
            assert code == 0, command
            if target is not None:
                Path(target).write_text(stdout)
    shown = README_EXAMPLES[index][1]
    if not shown.startswith("{"):
        assert shown in stderr
        return
    expected, actual = json.loads(shown), json.loads(stdout)
    assert set(actual) == set(expected)
    for key in set(expected) - MEASURED:
        assert _shows(expected[key], actual[key]), key
