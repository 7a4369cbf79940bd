"""Instance generation, file round trips, and labeling accuracy."""

import json
import re

import numpy as np
import pytest

from switchreg import (GeneratorSpec, Labeling, SQUARED, check_general_position,
                       empirical_cost, generate_instance, label_accuracy,
                       load_dataset_csv, load_dataset_json, save_dataset_csv,
                       save_dataset_json)


def test_same_spec_and_seed_bit_identical():
    spec = GeneratorSpec(n=2, d=2, N=40, noise_sigma=0.3, seed=123)
    d1, w1, l1 = generate_instance(spec)
    d2, w2, l2 = generate_instance(spec)
    assert np.array_equal(d1.x, d2.x)
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(w1.w, w2.w)
    assert np.array_equal(l1.q, l2.q)


def test_zero_noise_zero_cost_at_ground_truth():
    for seed in range(5):
        spec = GeneratorSpec(n=3, d=2, N=30, noise_sigma=0.0, seed=seed)
        data, models, labeling = generate_instance(spec)
        assert empirical_cost(data, models, labeling, SQUARED) == 0.0


def test_iid_mode_frequencies_concentrate():
    spec = GeneratorSpec(n=2, d=1, N=1000, seed=5)
    _, _, labeling = generate_instance(spec)
    for mode in (1, 2):
        freq = float(np.mean(labeling.q == mode))
        assert 0.4 <= freq <= 0.6


def test_markov_modes_are_sticky():
    spec = GeneratorSpec(n=2, d=1, N=2000, seed=6, mode_process="markov",
                         p_stay=0.9)
    _, _, labeling = generate_instance(spec)
    q = labeling.q
    stay = float(np.mean(q[1:] == q[:-1]))
    assert 0.85 <= stay <= 0.95


def test_uniform_box_regressors_bounded():
    spec = GeneratorSpec(n=2, d=3, N=200, seed=7, x_distribution="uniform_box")
    data, _, _ = generate_instance(spec)
    assert np.all(np.abs(data.x) <= 1.0)


def test_noisy_data_in_general_position():
    spec = GeneratorSpec(n=2, d=2, N=15, noise_sigma=0.2, seed=8)
    data, _, _ = generate_instance(spec)
    assert check_general_position(data.x).ok
    assert check_general_position(data.lifted()).ok


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=2, d=3, N=5)            # N < n*d
    with pytest.raises(ValueError):
        GeneratorSpec(n=2, d=1, N=10, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        GeneratorSpec(n=2, d=1, N=10, mode_process="cyclic")
    with pytest.raises(ValueError):
        GeneratorSpec(n=2, d=1, N=10, x_distribution="cauchy")
    with pytest.raises(ValueError):
        GeneratorSpec(n=2, d=1, N=10, mode_process="markov", p_stay=1.0)
    for n, d, N in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError, match="^n, d, N must be positive$"):
            GeneratorSpec(n=n, d=d, N=N)


# ---------------------------------------------------------------------------
# Files


def test_csv_round_trip(tmp_path):
    data, _, _ = generate_instance(GeneratorSpec(n=2, d=3, N=25,
                                                 noise_sigma=0.4, seed=9))
    path = tmp_path / "d.csv"
    save_dataset_csv(path, data)
    back = load_dataset_csv(path)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.y, data.y)


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty file$"):
        load_dataset_csv(path)


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset_csv(path)


def test_csv_short_row_names_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n1,2,3\n1,2\n")
    with pytest.raises(ValueError, match="row 3"):
        load_dataset_csv(path)


def test_csv_non_numeric_names_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n1,2\nfoo,3\n")
    with pytest.raises(ValueError, match="row 3"):
        load_dataset_csv(path)


def test_json_round_trip_with_ground_truth(tmp_path):
    spec = GeneratorSpec(n=2, d=2, N=12, noise_sigma=0.1, seed=10)
    data, models, labeling = generate_instance(spec)
    path = tmp_path / "d.json"
    save_dataset_json(path, data, n=2, seed=10, models=models,
                      labeling=labeling)
    bundle = load_dataset_json(path)
    assert np.array_equal(bundle.data.x, data.x)
    assert np.array_equal(bundle.data.y, data.y)
    assert bundle.n == 2 and bundle.seed == 10
    assert np.array_equal(bundle.models.w, models.w)
    assert np.array_equal(bundle.labeling.q, labeling.q)


def test_json_missing_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 1, "N": 1, "x": [["1.0"]]}')
    with pytest.raises(ValueError, match="y"):
        load_dataset_json(path)


# ---------------------------------------------------------------------------
# Scoring


def test_accuracy_invariant_under_mode_permutation():
    a = Labeling(np.array([1, 1, 2, 2, 3, 3]))
    b = Labeling(np.array([3, 3, 1, 1, 2, 2]))
    assert label_accuracy(a, b, 3) == 1.0


def test_accuracy_counts_mismatches():
    a = Labeling(np.array([1, 1, 2, 2, 2]))
    b = Labeling(np.array([1, 1, 2, 2, 1]))
    assert label_accuracy(a, b, 2) == 0.8


def test_accuracy_validates_inputs():
    with pytest.raises(ValueError, match="different lengths"):
        label_accuracy(Labeling(np.array([1])), Labeling(np.array([1, 2])), 2)
    with pytest.raises(ValueError, match="capped at n = 8"):
        label_accuracy(Labeling(np.array([1])), Labeling(np.array([1])), 9)
    for a, b in (([1, 3], [1, 2]), ([1, 2], [3, 2])):
        with pytest.raises(ValueError, match="label exceeds n=2"):
            label_accuracy(Labeling(np.array(a)), Labeling(np.array(b)), 2)


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "expected a JSON object"),
    ({"d": 1, "N": 2, "x": [[1.0], [2.0]], "y": [1.0, "a"]},
     "field 'y' has a non-numeric entry: could not convert string to "
     "float: 'a'"),
    ({"d": 1, "N": 3, "x": [[1.0], [2.0]], "y": [1.0, 2.0]},
     "x/y lengths do not match N=3"),
    ({"d": 1, "N": 2, "x": [[1.0], [2.0, 3.0]], "y": [1.0, 2.0]},
     "x row 2 has 2 entries, expected 1"),
    ({"d": 1, "N": 2, "x": [[True], [2]], "y": [False, "3.5"],
      "true_w": [[True]]},
     "x row 1 has a non-numeric entry: a boolean is not a number"),
    ({"d": 1, "N": 2, "x": [[1.0], [2.0]], "y": [False, "3.5"]},
     "field 'y' has a non-numeric entry: a boolean is not a number"),
    ({"d": 1, "N": 2, "x": [[1.0], [2.0]], "y": [1.0, 2.0],
      "true_w": [[10 ** 400]]},
     "true_w row 1 has a non-numeric entry: int too large to convert to "
     "float"),
    # raw text, written as it is: documents json.load itself refuses
    ('{"d": 1, "N": 2, "x": [[1.0], [2.0]], "y": [1.0',
     "Expecting ',' delimiter: line 1 column 48 (char 47)"),
    ('{"d": 1, "N": 1, "x": [[' + "1" * 5000 + ']], "y": [1.0]}',
     "Exceeds the limit (4300 digits) for integer string conversion: value "
     "has 5000 digits; use sys.set_int_max_str_digits() to increase the "
     "limit"),
    # ground truth that does not fit the data
    ({"d": 2, "N": 2, "n": 2, "x": [[1.0, 0.0], [2.0, 1.0]], "y": [1.0, 2.0],
      "true_w": [[1.0], [2.0]]},
     "true_w row 1 has 1 entries, expected 2"),
    ({"d": 2, "N": 2, "n": 2, "x": [[1.0, 0.0], [2.0, 1.0]], "y": [1.0, 2.0],
      "true_w": [[1.0, 0.5], [2.0]]},
     "true_w row 2 has 1 entries, expected 2"),
    ({"d": 1, "N": 2, "n": 2, "x": [[1.0], [2.0]], "y": [1.0, 2.0],
      "true_w": []},
     "field 'true_w' has no rows"),
    ({"d": 1, "N": 2, "n": 2, "x": [[1.0], [2.0]], "y": [1.0, 2.0],
      "true_labels": [1, 2, 1]},
     "field 'true_labels' must be a list of N=2 integers in "
     "1..2, got [1, 2, 1]"),
    ({"d": 1, "N": 2, "n": 2, "x": [[1.0], [2.0]], "y": [1.0, 2.0],
      "true_labels": [1, 3]},
     "field 'true_labels' must be a list of N=2 integers in "
     "1..2, got [1, 3]"),
    ({"d": 1, "N": 2, "x": [[1.0], [2.0]], "y": [1.0, 2.0],
      "true_labels": [0, 1]},
     "field 'true_labels' must be a list of N=2 integers in "
     "1..n, got [0, 1]"),
], ids=["not-an-object", "non-numeric", "length", "row-width", "boolean-x",
        "boolean-y", "past-float-range", "truncated", "digit-limit",
        "true-w-width", "true-w-ragged", "true-w-empty", "labels-length",
        "label-past-n", "label-below-1"])
def test_json_malformed_document_named(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'{path}: {message}')}$"):
        load_dataset_json(path)
