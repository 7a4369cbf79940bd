"""Command-line interface: subcommands, report shape, exit codes."""

import json

import numpy as np
import pytest

from switchreg import SQUARED, Dataset, Labeling, ModelSet, empirical_cost
from switchreg.cli import main

REPORT_FIELDS = {"method", "cost", "labels", "models", "candidates_examined",
                 "elapsed_ms", "status", "warnings"}


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


def test_heuristic_decision_is_usage_error(tmp_path, capsys):
    inst_path = tmp_path / "p.json"
    run(capsys, "reduce-partition", "--set", "1,2", "--out", str(inst_path))
    code, _, stderr = run(capsys, "solve", str(inst_path),
                          "--epsilon", "0", "--method", "altmin")
    assert code == 2
    assert "heuristic" in stderr


def test_caps_exit_code(tmp_path, capsys, monkeypatch):
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "25",
        "--noise-sigma", "0.1", "--out", str(data_path))
    monkeypatch.setenv("SWITCHREG_BRUTE_BUDGET", "1000")
    code, _, stderr = run(capsys, "solve", str(data_path), "--n", "2",
                          "--method", "brute")
    assert code == 3
    assert "budget" in stderr


def test_env_restart_override(tmp_path, capsys, monkeypatch):
    data_path = tmp_path / "d.csv"
    run(capsys, "generate", "--n", "2", "--d", "1", "--N", "10",
        "--noise-sigma", "0.1", "--out", str(data_path))
    monkeypatch.setenv("SWITCHREG_RESTARTS", "3")
    _, stdout, _ = run(capsys, "solve", str(data_path), "--n", "2",
                       "--method", "altmin")
    assert json.loads(stdout)["candidates_examined"] == 3
    # an explicit flag beats the environment
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
    monkeypatch.setenv("SWITCHREG_ZERO_TOL", "tiny")
    code, _, stderr = run(capsys, "solve", str(data_path), "--n", "2")
    assert code == 2
    assert "SWITCHREG_ZERO_TOL" in stderr


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


def test_bench_zero_repeats_is_usage_error(capsys):
    code, _, stderr = run(capsys, "bench", "--method", "altmin",
                          "--sizes", "40,80", "--repeats", "0")
    assert code == 2
    assert "repeats" in stderr
