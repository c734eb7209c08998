"""The structured (JSON) report of every subcommand: its top-level keys
and the keys of each row list, pinned as literal sets, and the form of
mismatch rows."""

import json

import pytest

import wctops.cli as cli_mod
from wctops.cli import main

README_SPEC = {
    "weights": [0.5, 0.25, 0.125, 0.0625],
    "blocks": [[2], [0, 1, 3]],
    "u": [[1.0, 0.0], [0.5, 0.0], [1 / 3, 0.0], [0.25, 0.0]],
    "w": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]],
    "m_max": 6,
}
# the averaging projection: normal, so normal_case is filled in, and its
# literal m-isometry reading diverges from the oracle
PROJECTION_SPEC = {
    "weights": [0.25, 0.25, 0.25, 0.25],
    "blocks": [[0, 1], [2, 3]],
    "u": [1.0, 1.0, 1.0, 1.0],
    "w": [1.0, 1.0, 1.0, 1.0],
}

CLASSIFICATION_KEYS = {
    "atom_count", "block_count", "m_max", "matrix_route", "symbols",
    "criteria", "normality", "normal_case", "spectrum", "spectrum_zeros",
    "essential_range", "spectrum_match", "mismatches", "divergences",
}
SYMBOL_ROW_KEYS = {"block", "atoms", "mass", "e_uw", "t", "e_u2", "e_w2", "product"}
ORACLE_FIELDS = ("oracle_quasi", "oracle_quasi_norm", "oracle_m_iso", "oracle_defect_norm")
CRITERIA_ROW_KEYS = {
    "m", "tol", "paper_quasi", "corrected_quasi", "oracle_quasi",
    "quasi_residual", "quasi_paper_residual", "oracle_quasi_norm",
    "paper_m_iso", "oracle_m_iso", "m_iso_paper_residual",
    "oracle_defect_norm", "e_r",
}
DIVERGENCE_KEYS = {
    "kind", "m", "paper_verdict", "oracle_verdict", "paper_residual", "oracle_norm",
}
MISMATCH_KEYS = {
    "weights", "blocks", "u", "w", "m", "criterion_residual", "oracle_norm",
}
NORMALITY_KEYS = {"normal", "residual", "tol"}
NORMAL_CASE_KEYS = {"identity_residual", "identity_ok", "properties", "all_equal"}


def _structured(capsys, argv):
    code = main(argv + ["--format", "structured"])
    return code, json.loads(capsys.readouterr().out)


def _spec_path(tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return str(path)


def _row_keys(rows):
    assert rows, "no rows to check"
    return [set(row) for row in rows]


def _check_classification(data, atoms):
    assert set(data) == CLASSIFICATION_KEYS
    assert data["atom_count"] == atoms
    assert _row_keys(data["symbols"]) == [SYMBOL_ROW_KEYS] * len(data["symbols"])
    assert _row_keys(data["criteria"]) == [CRITERIA_ROW_KEYS] * data["m_max"]
    if data["matrix_route"]:
        # on the two-route path every row carries the oracle's numbers
        for row in data["criteria"]:
            assert None not in [row[key] for key in ORACLE_FIELDS], row["m"]
        assert set(data["normality"]) == NORMALITY_KEYS
        assert set(data["spectrum_match"]) == {"ok", "distance"}
        # one eigenvalue per block, and the count of the other, zero ones
        assert len(data["spectrum"]) == data["block_count"]
        assert data["spectrum_zeros"] == atoms - data["block_count"]
    for d in data["divergences"]:
        assert set(d) == DIVERGENCE_KEYS


def test_classify_schema(tmp_path, capsys):
    code, data = _structured(capsys, ["classify", _spec_path(tmp_path, README_SPEC)])
    assert code == 0
    _check_classification(data, 4)
    assert data["mismatches"] == [] and data["divergences"] == []
    assert not data["normality"]["normal"] and data["normal_case"] is None


def test_classify_schema_normal_case_and_divergences(tmp_path, capsys):
    code, data = _structured(capsys, ["classify", _spec_path(tmp_path, PROJECTION_SPEC)])
    assert code == 0
    _check_classification(data, 4)
    assert {d["kind"] for d in data["divergences"]} == {"m_isometry"}
    assert set(data["normal_case"]) == NORMAL_CASE_KEYS
    assert _row_keys(data["normal_case"]["properties"]) == [
        {"name", "holds", "residual"}
    ] * 5


def test_classify_schema_symbol_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "MATRIX_LIMIT", 0)
    code, data = _structured(capsys, ["classify", _spec_path(tmp_path, README_SPEC)])
    assert code == 0
    assert not data["matrix_route"]
    _check_classification(data, 4)
    for row in data["criteria"]:
        assert [row[key] for key in ORACLE_FIELDS[:2] + ORACLE_FIELDS[3:]] == [None] * 3
    assert data["normality"] is None and data["spectrum"] is None
    assert data["spectrum_zeros"] is None and data["spectrum_match"] is None


def test_classify_text_notes_only_a_skipped_matrix_route(tmp_path, capsys, monkeypatch):
    path = _spec_path(tmp_path, README_SPEC)
    assert main(["classify", path]) == 0
    assert "note:" not in capsys.readouterr().out
    monkeypatch.setattr(cli_mod, "MATRIX_LIMIT", 0)
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out.endswith(
        "\nnote: matrix route skipped: 4 atoms exceed the dense-matrix limit "
        "of 0; verdicts use the symbol-level criteria\n"
    )


def test_example_a_schema(capsys):
    code, data = _structured(capsys, ["example-a", "--nx", "3", "--ny", "20"])
    assert code == 0
    assert set(data) == {
        "nx", "ny", "columns", "max_rel_err_e_u2", "max_rel_err_e_w2",
        "max_rel_err_t", "min_gap", "min_sqrt_residual", "classification",
    }
    assert _row_keys(data["columns"]) == [
        {"x", "e_u2", "e_u2_target", "e_w2", "e_w2_target", "t", "t_target",
         "product", "gap", "sqrt_residual"}
    ] * 3
    _check_classification(data["classification"], 60)


def test_example_b_schema(capsys):
    code, data = _structured(capsys, ["example-b", "--n-atoms", "12", "--m-max", "3"])
    assert code == 0
    assert set(data) == {
        "p", "n_atoms", "tail_mass", "alphas", "max_alpha_deviation", "classification",
    }
    assert _row_keys(data["alphas"]) == [{"block", "description", "value", "deviation"}] * 2
    _check_classification(data["classification"], 12)


def test_random_suite_schema(capsys):
    code, data = _structured(capsys, ["random-suite", "--count", "4", "--seed", "3"])
    assert code == 0
    assert set(data) == {
        "count", "seed", "m_max", "instances", "mismatch_count", "mismatches",
        "divergence_stats", "stratum_counts",
    }
    assert _row_keys(data["instances"]) == [
        {"index", "label", "stratum", "dim", "blocks", "mismatches", "divergences"}
    ] * 6
    assert data["mismatch_count"] == 0 and data["mismatches"] == []


def test_sweep_m_schema(tmp_path, capsys):
    path = _spec_path(tmp_path, README_SPEC)
    code, data = _structured(capsys, ["sweep-m", path, "--m-max", "3"])
    assert code == 0
    assert set(data) == {"m_max", "rows"}
    assert _row_keys(data["rows"]) == [{"m", "defect_norm", "quasi_defect_norm"}] * 3


def _check_pairs(values, expected):
    assert len(values) == len(expected)
    for pair, z in zip(values, expected):
        assert isinstance(pair, list) and len(pair) == 2
        assert complex(*pair) == pytest.approx(complex(*z) if isinstance(z, list) else z)


def test_classify_mismatch_rows(tmp_path, capsys, flipped_corrected_verdict):
    code, data = _structured(capsys, ["classify", _spec_path(tmp_path, README_SPEC)])
    assert code == 3
    rows = data["mismatches"]
    assert _row_keys(rows) == [MISMATCH_KEYS] * 6
    assert [row["m"] for row in rows] == list(range(1, 7))
    for row in rows:
        assert row["weights"] == README_SPEC["weights"]
        assert row["blocks"] == README_SPEC["blocks"]
        _check_pairs(row["u"], README_SPEC["u"])
        _check_pairs(row["w"], README_SPEC["w"])


def test_a_mismatch_row_replays_as_a_spec(tmp_path, capsys, flipped_corrected_verdict):
    # a row's spec fields, written as a spec file, classify the same operator:
    # its symbols rows are the original report's, byte for byte
    code, data = _structured(capsys, ["classify", _spec_path(tmp_path, README_SPEC)])
    assert code == 3
    row = data["mismatches"][0]
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({name: row[name] for name in ("weights", "blocks", "u", "w")}))
    report = cli_mod.cmd_classify(cli_mod.ProblemSpec.from_file(str(replay)))
    replayed = report.to_dict()["symbols"]
    assert json.dumps(replayed, sort_keys=True) == json.dumps(data["symbols"], sort_keys=True)


def test_random_suite_mismatch_rows(capsys, flipped_corrected_verdict):
    code, data = _structured(capsys, ["random-suite", "--count", "2", "--m-max", "2"])
    assert code == 3
    rows = data["mismatches"]
    assert data["mismatch_count"] == len(rows) == 4 * 2
    assert _row_keys(rows) == [MISMATCH_KEYS | {"index", "label"}] * len(rows)
    atoms = {i["index"]: i["dim"] for i in data["instances"]}
    for row in rows:
        for name in ("u", "w"):
            assert len(row[name]) == atoms[row["index"]]
            assert all(isinstance(p, list) and len(p) == 2 for p in row[name])
    projection = rows[0]
    assert projection["label"] == "projection"
    _check_pairs(projection["u"], [1.0] * 4)
    _check_pairs(projection["w"], [1.0] * 4)
