import io
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import wctops
import wctops.cli as cli_mod
from wctops import (
    Mfunc,
    NumericError,
    Partition,
    ValidationError,
    grid_space,
    make_partition,
    make_space,
)
from wctops.cli import (
    ProblemSpec,
    classify_operator,
    cmd_classify,
    cmd_example_a,
    cmd_example_b,
    cmd_random_suite,
    cmd_sweep_m,
    fixture_projection,
    fixture_support_gap,
    main,
    random_instance,
    suite_instances,
)
from conftest import audit, wct_oracle

EXAMPLE_B_SPEC = {
    "weights": [0.5, 0.25, 0.125, 0.0625],
    "blocks": [[2], [0, 1, 3]],
    "u": [[1.0, 0.0], [0.5, 0.0], [1 / 3, 0.0], [0.25, 0.0]],
    "w": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]],
    "m_max": 4,
}


def _write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_spec_round_trip():
    spec = ProblemSpec.from_dict(EXAMPLE_B_SPEC)
    again = ProblemSpec.from_dict(spec.to_dict())
    assert spec.to_dict() == again.to_dict()


def test_spec_accepts_bare_real_numbers():
    data = dict(EXAMPLE_B_SPEC)
    data["u"] = [1.0, 0.5, 1 / 3, 0.25]
    spec = ProblemSpec.from_dict(data)
    assert spec.u.values[1] == 0.5 + 0j


def test_spec_rejects_missing_and_unknown_fields(tmp_path, capsys):
    with pytest.raises(ValidationError, match="missing required field 'w'"):
        ProblemSpec.from_dict({"weights": [1.0], "blocks": [[0]], "u": [1.0]})
    bad = dict(EXAMPLE_B_SPEC)
    bad["extra"] = 1
    with pytest.raises(ValidationError, match="unknown field"):
        ProblemSpec.from_dict(bad)
    # the retired hyponormality exponents, since normality is one verdict,
    # and the retired tolerance, even null, since every threshold is the
    # operator's own
    for name, value in (("probes_p", [0.25, 0.5, 2.0]), ("tol", None), ("tol", 1e-3)):
        retired = _write_spec(tmp_path, dict(EXAMPLE_B_SPEC, **{name: value}))
        for command in ("classify", "sweep-m"):
            assert main([command, retired]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: spec has unknown field(s): {name}\n"
            assert captured.out == ""


def _late(field, entry):
    """EXAMPLE_B_SPEC's ``field`` with its last entry, index 3, replaced."""
    return [*EXAMPLE_B_SPEC[field][:3], entry]


def test_spec_rejects_malformed_complex():
    bad = dict(EXAMPLE_B_SPEC)
    bad["u"] = [[1.0, 0.0, 0.0], [0.5, 0.0], [1 / 3, 0.0], [0.25, 0.0]]
    with pytest.raises(ValidationError, match=r"u\[0\]"):
        ProblemSpec.from_dict(bad)
    # a pair of the wrong length after three good pairs is named by its index
    for field in ("u", "w"):
        for entry in ([0.25, 0.0, 0.0], [0.25], []):
            bad = dict(EXAMPLE_B_SPEC, **{field: _late(field, entry)})
            with pytest.raises(ValidationError, match=re.escape(f"'{field}[3]'")):
                ProblemSpec.from_dict(bad)


@pytest.mark.parametrize(
    "blocks,bad",
    [
        ([[0.9], [1.7], [2, 3]], "blocks[0]"),  # int() would truncate to [[0], [1]]
        ([[0, 1], [2, True], [3]], "blocks[1]"),
        ([[0, 1, 2], ["3"]], "blocks[1]"),
    ],
)
def test_spec_rejects_atom_indices_that_are_not_integers(tmp_path, capsys, blocks, bad):
    data = dict(EXAMPLE_B_SPEC, blocks=blocks)
    with pytest.raises(ValidationError, match=re.escape(f"'{bad}'")):
        ProblemSpec.from_dict(data)
    assert main(["classify", _write_spec(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith(f"error: spec field '{bad}'")


@pytest.mark.parametrize(
    "index,message",
    [
        # the largest array index is read, and then lies past the atoms
        (
            2**63 - 1,
            "block 1 contains out-of-range atom index 9223372036854775807 (space has 4 atoms)",
        ),
        (2**63, "spec field 'blocks[1]': an atom index of 64 bits is out of range"),
        (2**64, "spec field 'blocks[1]': an atom index of 65 bits is out of range"),
    ],
    ids=["2**63-1", "2**63", "2**64"],
)
def test_spec_reads_atom_indices_up_to_the_array_index_range(tmp_path, capsys, index, message):
    blocks = [[2], [0, 1, index]]
    if index <= sys.maxsize:
        assert cli_mod._read_blocks(blocks) == ([2, 0, 1, index], [1, 3])
    with pytest.raises(ValidationError) as refused:
        ProblemSpec.from_dict(dict(EXAMPLE_B_SPEC, blocks=blocks))
    assert str(refused.value) == message
    assert main(["classify", _write_spec(tmp_path, dict(EXAMPLE_B_SPEC, blocks=blocks))]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_spec_accepts_integral_float_atom_indices():
    data = dict(EXAMPLE_B_SPEC, blocks=[[2.0], [0, 1.0, 3]])
    assert ProblemSpec.from_dict(data).partition.blocks == ((2,), (0, 1, 3))


@pytest.mark.parametrize(
    "field,value,bad",
    [
        ("m_max", 2.7, "m_max"),  # int() would truncate to 2
        ("m_max", True, "m_max"),
        ("m_max", "3", "m_max"),
        ("m_max", [4], "m_max"),
        ("m_max", float("inf"), "m_max"),
        ("weights", [True, 0.25, 0.125, 0.0625], "weights[0]"),
        ("weights", [0.5, "0.25", 0.125, 0.0625], "weights[1]"),
        # a null order, a null weight and a bare number for a list; the
        # rows below keep the indices their ids are generated from
        ("m_max", None, "m_max"),
        ("weights", [0.5, None, 0.125, 0.0625], "weights[1]"),
        ("weights", 0.5, "weights"),
        # u and w entries after three good pairs, named by their index
        ("u", _late("u", [True, 0]), "u[3]"),
        ("w", _late("w", [True, 0]), "w[3]"),
        ("u", _late("u", ["1", 0]), "u[3]"),
        ("w", _late("w", ["1", 0]), "w[3]"),
        ("u", _late("u", True), "u[3]"),
        ("w", _late("w", True), "w[3]"),
        ("u", _late("u", [0.25, 0.0, 0.0]), "u[3]"),
        ("w", _late("w", "4"), "w[3]"),
    ],
)
def test_spec_rejects_scalars_of_the_wrong_type(tmp_path, capsys, field, value, bad):
    data = dict(EXAMPLE_B_SPEC, **{field: value})
    with pytest.raises(ValidationError, match=re.escape(f"'{bad}'")):
        ProblemSpec.from_dict(data)
    assert main(["classify", _write_spec(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith(f"error: spec field '{bad}'")


# an integer of 401 digits: JSON reads it exactly, and no double holds it
HUGE = 10**400


@pytest.mark.parametrize(
    "field,value,bad",
    [
        ("u", [1, 1, 1, HUGE], "u[3]"),
        ("w", _late("w", [4.0, HUGE]), "w[3]"),
        ("weights", [0.5, 0.25, HUGE, 0.0625], "weights[2]"),
        ("blocks", [[2], [0, 1, HUGE]], "blocks[1]"),
        ("blocks", [[2.0], [0, 1, 1e300]], "blocks[1]"),
    ],
    ids=["u", "w-pair", "weights", "atom-index", "float-atom-index"],
)
def test_main_rejects_numbers_out_of_range(tmp_path, capsys, field, value, bad):
    data = dict(EXAMPLE_B_SPEC, **{field: value})
    assert main(["classify", _write_spec(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: spec field '{bad}': ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize(
    "text",
    [
        # past the interpreter's limit on the digits of an integer it reads
        b'{"weights": [1], "blocks": [[0]], "u": [1], "w": [' + b"9" * 5000 + b"]}",
        # not UTF-8
        b'{"weights": [1], "blocks": [[0]], "u": [1], "w": ["\xff"]}',
    ],
    ids=["digits", "latin-1"],
)
def test_main_rejects_a_spec_file_it_cannot_read(tmp_path, capsys, text):
    path = tmp_path / "spec.json"
    path.write_bytes(text)
    assert main(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: spec file {path} cannot be read: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_spec_reads_a_large_pair_form_spec_with_no_per_entry_call(monkeypatch):
    calls = []
    for name in ("_read_entries", "_is_integral"):
        original = getattr(cli_mod, name)
        monkeypatch.setattr(
            cli_mod, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    rng = np.random.default_rng(12)
    n = 600
    z = rng.standard_normal((2, n, 2))
    data = {
        "weights": rng.uniform(0.2, 2.0, n).tolist(),
        "blocks": [blk.tolist() for blk in np.array_split(rng.permutation(n), 15)],
        "u": z[0].tolist(),
        "w": z[1].tolist(),
        "m_max": 4,
    }
    spec = ProblemSpec.from_dict(data)
    assert calls == ["_is_integral"]  # once, for the scalar m_max
    assert tuple(spec.u.values.tolist()) == tuple(complex(re, im) for re, im in data["u"])
    assert spec.partition.blocks == tuple(tuple(blk) for blk in data["blocks"])


def test_spec_accepts_an_integral_float_m_max():
    assert ProblemSpec.from_dict(dict(EXAMPLE_B_SPEC, m_max=2.0)).m_max == 2


@pytest.mark.parametrize("command", ["classify", "sweep-m"])
def test_main_rejects_m_max_zero(tmp_path, capsys, command):
    assert main([command, _write_spec(tmp_path, EXAMPLE_B_SPEC), "--m-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: m_max must be >= 1, got 0\n"
    assert captured.out == ""


def test_main_rejects_m_max_zero_on_the_symbol_only_route(capsys):
    # 20 x 1000 atoms is past the matrix limit, so no oracle runs
    assert main(["example-a", "--m-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: m_max must be >= 1, got 0\n"
    assert captured.out == ""


def test_main_m_max_flag_overrides_the_spec(tmp_path, capsys):
    # the spec asks for 6 orders; --m-max 4, the other subcommands' default,
    # still overrides it
    path = _write_spec(tmp_path, dict(EXAMPLE_B_SPEC, m_max=6))
    assert main(["classify", path, "--m-max", "4", "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["m_max"] == 4 and [row["m"] for row in data["criteria"]] == [1, 2, 3, 4]
    assert main(["classify", path, "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["m_max"] == 6


@pytest.mark.parametrize(
    "argv,m_max",
    [
        (["example-a", "--nx", "2", "--ny", "10"], 4),
        (["example-b", "--n-atoms", "10"], 6),
        (["random-suite", "--count", "1"], 4),
        (["sweep-m", None], 6),
    ],
)
def test_main_m_max_defaults_per_subcommand(tmp_path, capsys, argv, m_max):
    argv = [a if a is not None else _write_spec(tmp_path, EXAMPLE_B_SPEC) for a in argv]
    assert main([*argv, "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data.get("classification", data)["m_max"] == m_max


def test_main_classifies_orders_past_nine(tmp_path, capsys):
    # t = 2 on the first atom: the alternating sums' roundoff grows like
    # eps (1 + t)^m, past a bound on the closed form's own scale at m = 11
    spec = {"weights": [1, 1], "blocks": [[0], [1]], "u": [1, 1], "w": [1.4142, 0.5]}
    path = _write_spec(tmp_path, spec)
    assert main(["classify", path, "--m-max", "12", "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["criteria"]) == 12 and not data["mismatches"]


OVERFLOW_SPECS = {
    "gram-stack": (
        {"weights": [1, 1], "blocks": [[0], [1]], "u": [1e30, 1e30], "w": [1e30, 1e30]},
        "the powers of T overflow",
    ),
    "symbol-route": (
        {
            "weights": [1] * 601,
            "blocks": [[i] for i in range(601)],
            "u": [1e30] * 601,
            "w": [1e30] * 601,
        },
        "binomial sums of order 4 overflow",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(OVERFLOW_SPECS))
def test_main_overflow_exits_4_with_one_error_line(tmp_path, capsys, name):
    spec, message = OVERFLOW_SPECS[name]
    assert main(["classify", _write_spec(tmp_path, spec)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert captured.out == ""


# overflows that numpy warns about before a check finds them: the products
# u w and |u|^2 of two singletons, and the symbol product E|u|^2 E|w|^2 of
# one block past the matrix route's size
WARNING_OVERFLOW_SPECS = {
    "singleton-products": {
        "weights": [1, 1],
        "blocks": [[0], [1]],
        "u": [1e160, 1],
        "w": [1e160, 1],
    },
    "symbol-product": {
        "weights": [1] * 601,
        "blocks": [list(range(601))],
        "u": [1e80] + [0] * 600,
        "w": [0, 1e80] + [0] * 599,
    },
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["classify", "sweep-m"])
@pytest.mark.parametrize("name", sorted(WARNING_OVERFLOW_SPECS))
def test_main_overflow_exits_4_with_no_numpy_warning(tmp_path, capsys, name, command):
    assert main([command, _write_spec(tmp_path, WARNING_OVERFLOW_SPECS[name])]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["example-b", "--m-max", "1029"],
            "the threshold of order 614 overflows: scale 1.783e+00 to the power 1228",
        ),
        (
            ["random-suite", "--count", "3", "--m-max", "1030"],
            "the threshold of order 1024 overflows: scale 1.414e+00 to the power 2048",
        ),
    ],
    ids=["example-b", "random-suite"],
)
def test_main_high_order_overflow_exits_4_with_no_numpy_warning(capsys, argv, message):
    # every defect norm is finite, but the threshold 1e-9 |T|^(2m) of a high
    # order is not: the first such order is named on one line
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
def test_main_high_order_classifies_with_no_numpy_warning(capsys):
    # |E(uw)|^2 is near 1.90 and 1.95 on the two blocks, so the alternating
    # sums of order 800 would overflow; the closed forms and the threshold
    # 1e-9 |T|^1600 stay finite
    argv = ["example-a", "--nx", "2", "--ny", "2", "--m-max", "800", "--format", "structured"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads(captured.out)["classification"]
    assert len(data["criteria"]) == 800 and not data["mismatches"]


def test_main_maps_memory_error_to_one_line_and_exit_2(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli_mod, "_dispatch", exhausted)
    assert main(["example-a", "--nx", "100000", "--ny", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: Unable to allocate 74.5 GiB for an array\n"
    assert captured.out == ""


def _large_spec(exponent):
    """Two blocks of three atoms with ``u`` of size 2^exponent."""
    c = 2.0**exponent
    return {
        "weights": [1] * 6,
        "blocks": [[0, 1, 2], [3, 4, 5]],
        "u": [c * x for x in (1.0, 2.0, 3.0, 1.5, 0.5, 2.5)],
        "w": [1.0, -1.0, 2.0, 0.5, 3.0, -2.0],
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent,m_max", [(150, 1), (250, 1), (130, 2)])
def test_main_classifies_a_large_operator_with_no_warning(tmp_path, capsys, exponent, m_max):
    # T* B_m T has entries near |T|^(2m+2); its reconstruction check squares
    # the error only after dividing it by the operand's scale
    path = _write_spec(tmp_path, _large_spec(exponent))
    assert main(["classify", path, "--m-max", str(m_max), "--format", "structured"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and not json.loads(captured.out)["mismatches"]


@pytest.mark.filterwarnings("error")
def test_main_large_operator_past_the_double_range_exits_4(tmp_path, capsys):
    assert main(["classify", _write_spec(tmp_path, _large_spec(300)), "--m-max", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the powers of T overflow")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("exponent", [-77.6, -79.0, -80.7])
def test_main_classifies_a_block_whose_probe_image_has_subnormal_norm(
    tmp_path, capsys, exponent
):
    # |T f|^2 on block 0 is about s^4, a subnormal number: a complex division
    # by it that takes its reciprocal gives an infinite core
    s = 10.0**exponent
    spec = {
        "weights": [0.3, 0.2, 0.25, 0.25],
        "blocks": [[0, 1], [2, 3]],
        "u": [s, 2 * s, 1, 0.5],
        "w": [3 * s, s, 1, 2],
    }
    assert main(["classify", _write_spec(tmp_path, spec), "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spectrum_match"]["ok"] and data["mismatches"] == []
    for row in data["criteria"]:
        assert np.isfinite([row["oracle_defect_norm"], row["oracle_quasi_norm"]]).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["classify", "sweep-m"])
def test_main_m_max_past_the_double_range_of_the_binomials_classifies(tmp_path, capsys, command):
    # C(1030, 515) is past the double range, but no binomial coefficient is
    # formed: on the unit-norm averaging projection every B_m has norm
    # exactly 1 and every T* B_m T is exactly 0
    spec = {"weights": [0.25] * 4, "blocks": [[0, 1], [2, 3]], "u": [1] * 4, "w": [1] * 4}
    path = _write_spec(tmp_path, spec)
    assert main([command, path, "--m-max", "1030", "--format", "structured"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads(captured.out)
    if command == "classify":
        norms = {(r["oracle_defect_norm"], r["oracle_quasi_norm"]) for r in data["criteria"]}
    else:
        norms = {(r["defect_norm"], r["quasi_defect_norm"]) for r in data["rows"]}
    assert len(data["criteria" if command == "classify" else "rows"]) == 1030
    assert norms == {(1.0, 0.0)}


@pytest.mark.parametrize("run", ["classify_operator", "cmd_sweep_m"])
@pytest.mark.parametrize("name", sorted(WARNING_OVERFLOW_SPECS))
def test_library_overflow_raises_numeric_error_with_no_numpy_warning(name, run):
    # outside main: each checked computation silences the overflow it checks
    spec = ProblemSpec.from_dict(WARNING_OVERFLOW_SPECS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            if run == "classify_operator":
                classify_operator(spec.space, spec.partition, spec.u, spec.w, spec.m_max)
            else:
                cmd_sweep_m(spec)


SUBCOMMANDS = [["classify", None], ["sweep-m", None], ["example-a"], ["example-b"], ["random-suite"]]


def _assert_tolerance_refused(tmp_path, capsys, command, value):
    # every verdict is decided at its order's own scaled threshold, so no
    # subcommand takes a tolerance: argparse refuses --tol, whatever its value
    argv = [a if a is not None else _write_spec(tmp_path, EXAMPLE_B_SPEC) for a in command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: --tol {value}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("value", ["-1", "nan", "0", "inf", "-0.0"])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_main_rejects_a_tolerance_that_is_not_finite_and_positive(
    tmp_path, capsys, command, value
):
    _assert_tolerance_refused(tmp_path, capsys, command, value)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_main_rejects_any_tolerance(tmp_path, capsys, command):
    _assert_tolerance_refused(tmp_path, capsys, command, "1e-3")


def test_spec_build_rejects_overlapping_blocks():
    bad = dict(EXAMPLE_B_SPEC)
    bad["blocks"] = [[0, 1], [1, 2, 3]]
    with pytest.raises(ValidationError, match="atom 1"):
        ProblemSpec.from_dict(bad)


def test_spec_build_rejects_wrong_function_length():
    bad = dict(EXAMPLE_B_SPEC)
    bad["u"] = [[1.0, 0.0], [0.5, 0.0]]
    with pytest.raises(ValidationError, match="'u' has 2 values"):
        ProblemSpec.from_dict(bad)


def test_cmd_classify_example_b_spec(tmp_path):
    path = _write_spec(tmp_path, EXAMPLE_B_SPEC)
    report = cmd_classify(path)
    assert report.matrix_route
    for row in report.criteria_rows:
        assert row["oracle_quasi"]
        assert not row["oracle_m_iso"]
    for row in report.symbol_rows:
        assert row["e_uw"][0] == pytest.approx(1.0, abs=1e-12)
        assert abs(row["e_uw"][1]) < 1e-12
    assert report.mismatch_count == 0


def test_cmd_classify_unimodular_singletons():
    space = make_space((0.3, 0.7))
    spec = ProblemSpec(
        space=space,
        partition=make_partition(space, ((0,), (1,))),
        u=Mfunc((np.exp(0.4j), np.exp(-1.1j))),
        w=Mfunc((1.0, 1.0)),
        m_max=3,
    )
    report = cmd_classify(spec)
    for row in report.criteria_rows:
        assert row["oracle_m_iso"] and row["oracle_quasi"]
    assert report.normality["normal"]


def test_classification_report_round_trip_is_deterministic(tmp_path):
    path = _write_spec(tmp_path, EXAMPLE_B_SPEC)
    first = json.dumps(cmd_classify(path).to_dict(), sort_keys=True)
    spec = ProblemSpec.from_file(path)
    reparsed = ProblemSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))
    )
    second = json.dumps(cmd_classify(reparsed).to_dict(), sort_keys=True)
    assert first == second


def test_cmd_example_b_small():
    report = cmd_example_b(0.5, 12, m_max=4)
    assert report.max_alpha_deviation < 1e-12
    assert report.tail_mass == pytest.approx(0.5**12)
    for row in report.classification.criteria_rows:
        assert row["oracle_quasi"] and not row["oracle_m_iso"]


def test_cmd_example_b_p_independence():
    left = cmd_example_b(0.5, 20, m_max=2)
    right = cmd_example_b(0.3, 20, m_max=2)
    for report in (left, right):
        assert report.max_alpha_deviation < 1e-12
        for row in report.classification.criteria_rows:
            assert row["oracle_quasi"]


def test_cmd_example_a_small_grid():
    report = cmd_example_a(4, 120, m_max=2)
    assert report.max_rel_err_e_w2 < 1e-12  # midpoint rule exact on linear
    assert report.max_rel_err_e_u2 < 1e-3
    assert report.max_rel_err_t < 1e-3
    assert report.min_gap > 0.1
    assert report.min_sqrt_residual > 0.05
    assert report.classification.matrix_route
    for row in report.classification.criteria_rows:
        assert not row["corrected_quasi"]
        assert not row["oracle_m_iso"]


def test_example_a_text_claims_a_gap_only_past_the_roundoff_of_the_products():
    def gap_line(report):
        return next(line for line in report.render_text().splitlines() if line.startswith("measured gap"))

    # one atom per column: E|u|^2 E|w|^2 = |E(uw)|^2, and the gap is roundoff
    claim = ": the symbol product and |E(uw)|^2 are {} on this domain"
    assert gap_line(cmd_example_a(5, 1)).endswith(claim.format("equal to roundoff"))
    assert gap_line(cmd_example_a(4, 120, m_max=1)).endswith(claim.format("not equal"))


def test_cmd_example_a_degenerate_single_column():
    report = cmd_example_a(1, 10, m_max=2)
    assert report.classification.atom_count == 10
    assert len(report.columns) == 1


@pytest.mark.parametrize("nx,ny", [(3, 5), (20, 1000)])
def test_cmd_example_a_classifies_u_and_w_on_the_atoms(nx, ny):
    # example-a builds u and w from the column and row factors; the report
    # is that of the same formulas evaluated on the atom arrays themselves
    grid = grid_space(nx, ny)
    x, y = np.repeat(grid.xs, ny), np.tile(grid.ys, nx)
    u = Mfunc(np.exp(x / 8.0 * np.log(y)))
    w = Mfunc(np.sqrt(4.0 + x) * np.sqrt(y))
    expected = classify_operator(grid.space, grid.partition, u, w)
    assert cmd_example_a(nx, ny).classification.to_dict() == expected.to_dict()


@pytest.mark.parametrize("nx,ny", [(2, 2), (7, 11), (2, 20000)])
def test_cmd_example_a_equals_the_operator_built_eagerly(nx, ny):
    # grid_space keeps one mass and builds no atom array for the symbols;
    # the report is, byte for byte, that of an atom-length weight copy and
    # a partition checked atom by atom (at 2 x 20000 each block is longer
    # than MOMENT_CHUNK)
    n = nx * ny
    space = make_space(np.full(n, 1.0 / n))
    partition = Partition(np.arange(n), np.full(nx, ny), n)
    assert space.weights.strides == (8,) and "atoms" in vars(partition)
    grid = grid_space(nx, ny)
    x, y = grid.xs[:, None], grid.ys
    u = Mfunc(np.exp(x / 8.0 * np.log(y)))
    w = Mfunc(np.sqrt(4.0 + x) * np.sqrt(y))
    expected = classify_operator(space, partition, u, w)
    report = cmd_example_a(nx, ny).classification
    assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())


def _assert_floats_close(got, want, where="report"):
    # every non-float value equal, every float within 1e-13 max(1, |want|)
    if isinstance(want, float):
        assert isinstance(got, float), where
        bound = 1e-13 * max(1.0, abs(want))
        assert got == want or abs(got - want) <= bound, (where, got, want)
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_floats_close(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, v) in enumerate(zip(got, want)):
            _assert_floats_close(g, v, f"{where}[{i}]")
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize("nx,ny,m_max", [(2, 2, 45), (7, 11, 4), (20, 1000, 4), (100, 10000, 4)])
def test_cmd_example_a_keeps_the_papers_formulas(monkeypatch, nx, ny, m_max):
    # example-a takes u = exp((x/8) ln y) and w = sqrt(4+x) sqrt(y) from
    # the axis factors; each atom value lies within 8 ulp of the paper's
    # y**(x/8) and sqrt((4+x) y), and the report is that of the paper's
    # formulas up to roundoff, with every verdict, count and divergence kept
    seen = []

    def spy(space, partition, u, w, **kwargs):
        seen.append((u.values, w.values))
        return classify_operator(space, partition, u, w, **kwargs)

    monkeypatch.setattr(cli_mod, "classify_operator", spy)
    report = cmd_example_a(nx, ny, m_max=m_max).classification
    (u, w), = seen
    grid = grid_space(nx, ny)
    x, y = np.repeat(grid.xs, ny), np.tile(grid.ys, nx)
    paper_u, paper_w = Mfunc(y ** (x / 8.0)), Mfunc(np.sqrt((4.0 + x) * y))
    for got, want in ((u, paper_u.values), (w, paper_w.values)):
        assert (np.abs(got - want) <= 8 * np.spacing(want)).all()
    expected = classify_operator(grid.space, grid.partition, paper_u, paper_w, m_max=m_max)
    _assert_floats_close(report.to_dict(), expected.to_dict())


def test_symbol_only_example_a_reads_no_atom_array_of_its_partition():
    grid = grid_space(30, 30)
    x, y = grid.xs[:, None], grid.ys
    report = classify_operator(
        grid.space, grid.partition, Mfunc(y ** (x / 8.0)), Mfunc(np.sqrt((4.0 + x) * y))
    )
    assert not report.matrix_route
    assert "atoms" not in vars(grid.partition)
    assert "block_index" not in vars(grid.partition)


def test_symbol_only_example_a_does_not_load_numpy_random():
    # the probe generator is built when probes are first drawn, so neither
    # the import nor a report past the matrix route loads numpy.random
    src = os.path.dirname(os.path.dirname(wctops.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, wctops.cli; wctops.cli.cmd_example_a(20, 1000); "
        "print('numpy.random' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=False,
    )
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def test_cmd_example_a_midpoint_error_shrinks():
    errors = [
        cmd_example_a(4, ny, m_max=1).max_rel_err_e_u2
        for ny in (250, 500, 1000)
    ]
    assert errors[1] < errors[0] / 2
    assert errors[2] < errors[1] / 2


def test_cmd_sweep_m_geometric(tmp_path):
    path = _write_spec(tmp_path, EXAMPLE_B_SPEC)
    report = cmd_sweep_m(path, m_max=6)
    assert [row["m"] for row in report.rows] == [1, 2, 3, 4, 5, 6]
    for row in report.rows:
        assert row["quasi_defect_norm"] <= 1e-10
        assert row["defect_norm"] > 0.1


def test_cmd_sweep_m_growth():
    space = make_space((0.9, 0.1))
    spec = ProblemSpec(
        space=space,
        partition=make_partition(space, ((0,), (1,))),
        u=Mfunc((2.0, 1.0)),
        w=Mfunc((1.0, 1.0)),
    )
    report = cmd_sweep_m(spec, m_max=4)
    quasi = [row["quasi_defect_norm"] for row in report.rows]
    assert quasi == pytest.approx([4 * 3**m for m in range(1, 5)], rel=1e-12)


def test_cmd_sweep_m_identity():
    space = make_space((0.5, 0.5))
    spec = ProblemSpec(
        space=space,
        partition=make_partition(space, ((0,), (1,))),
        u=Mfunc((1.0, 1.0)),
        w=Mfunc((1.0, 1.0)),
    )
    for row in cmd_sweep_m(spec, m_max=3).rows:
        assert row["defect_norm"] < 1e-14
        assert row["quasi_defect_norm"] < 1e-14


def test_cmd_example_b_not_isometric_at_depth():
    report = cmd_example_b(0.5, 60, m_max=1)
    assert report.classification.criteria_rows[0]["oracle_defect_norm"] > 0.5


def test_cmd_random_suite_small():
    report = cmd_random_suite(count=25, seed=11, m_max=3)
    assert report.mismatch_count == 0
    assert report.divergence_stats["quasi"] == 1
    assert report.divergence_stats["m_isometry"] == 1
    assert report.stratum_counts["fixture"] == 2


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("m_max", [4, 12])
def test_random_suite_rows_match_the_classify_reports(request, m_max, flipped):
    # the suite and classify_operator each assemble the audit themselves;
    # on every instance they find the same mismatches and divergence kinds,
    # also with every corrected quasi verdict inverted, so that every order
    # is a mismatch
    if flipped:
        request.getfixturevalue("flipped_corrected_verdict")
    suite = cmd_random_suite(count=200, m_max=m_max)
    instances = suite_instances(200)
    assert len(suite.instance_rows) == len(instances)
    for row, inst in zip(suite.instance_rows, instances):
        report = classify_operator(inst.space, inst.partition, inst.u, inst.w, m_max)
        assert row["mismatches"] == len(report.mismatches) == flipped * m_max, inst.label
        assert row["divergences"] == sorted({d["kind"] for d in report.divergences}), inst.label


def test_cmd_random_suite_deterministic():
    left = cmd_random_suite(count=15, seed=29, m_max=2).to_dict()
    right = cmd_random_suite(count=15, seed=29, m_max=2).to_dict()
    assert json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True)


def test_suite_instances_deterministic():
    a = suite_instances(10, seed=5)
    b = suite_instances(10, seed=5)
    for x, y in zip(a, b):
        assert np.array_equal(x.u.values, y.u.values)
        assert np.array_equal(x.w.values, y.w.values)
        assert x.partition.blocks == y.partition.blocks


def test_fixtures_shapes():
    proj = fixture_projection()
    gap = fixture_support_gap()
    assert proj.space.atom_count == 4 and gap.space.atom_count == 4
    assert np.allclose(proj.u.values, 1.0)
    assert gap.w.values[1] == 0


def test_random_instance_strata():
    rng = np.random.default_rng(0)
    quasi = random_instance(rng, stratum="quasi")
    from wctops import symbols

    st = symbols(quasi.cond_exp(), quasi.w, quasi.u)
    assert np.abs(np.abs(st.alpha[st.in_both]) - 1.0).max() < 1e-12
    uni = random_instance(rng, stratum="unimodular")
    assert uni.partition.block_count == uni.space.atom_count
    assert np.abs(np.abs(uni.u.values * uni.w.values) - 1.0).max() < 1e-12


def _criteria_table(out):
    """The lines of the per-order table of a text report, header first."""
    lines = out.splitlines()
    start = lines.index("criteria (literal vs corrected/oracle):") + 1
    end = lines.index("", start)
    return [line.split() for line in lines[start:end]]


def test_main_classify_table(tmp_path, capsys):
    path = _write_spec(tmp_path, EXAMPLE_B_SPEC)
    code = main(["classify", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "corrected-vs-oracle mismatches: 0" in out
    # the one per-order table prints every oracle number of its row
    rows = cmd_classify(path).criteria_rows
    table = _criteria_table(out)
    assert "defect verdicts" not in out and len(table) == 1 + len(rows)
    for row, line in zip(rows, table[1:]):
        assert int(line[0]) == row["m"] and line[3] == cli_mod._fmt_bool(row["oracle_quasi"])
        assert line[7] == cli_mod._fmt_bool(row["oracle_m_iso"])
        assert float(line[5]) == float(f"{row['oracle_quasi_norm']:.6e}")
        assert float(line[9]) == float(f"{row['oracle_defect_norm']:.6e}")
        assert float(line[10]) == float(f"{row['tol']:.2e}")
    # past the dense limit the oracle does not run: its columns print n/a
    assert main(["example-a", "--nx", "601", "--ny", "2", "--m-max", "2"]) == 0
    table = _criteria_table(capsys.readouterr().out)
    assert len(table) == 3
    for line in table[1:]:
        assert [line[i] for i in (3, 5, 9)] == ["n/a"] * 3


def test_classify_text_lists_each_literal_reading_divergence():
    # the averaging projection: the literal m-isometry reading holds at
    # every order, and the oracle's defect norm is 1
    spec = ProblemSpec.from_dict(
        {"weights": [0.25] * 4, "blocks": [[0, 1], [2, 3]], "u": [1] * 4, "w": [1] * 4}
    )
    lines = cmd_classify(spec).render_text().splitlines()
    start = lines.index("literal-reading divergences: 4")
    assert lines[start + 1 : start + 5] == [
        f"  m={m} m_isometry: literal=yes oracle=no "
        f"(literal residual 0.000e+00, oracle norm 1.000e+00)"
        for m in range(1, 5)
    ]


def test_main_classify_structured_out(tmp_path, capsys):
    path = _write_spec(tmp_path, EXAMPLE_B_SPEC)
    out_path = tmp_path / "report.json"
    code = main(["classify", path, "--format", "structured", "--out", str(out_path)])
    assert code == 0
    stdout_data = json.loads(capsys.readouterr().out)
    file_data = json.loads(out_path.read_text())
    assert stdout_data == file_data
    assert file_data["mismatches"] == []


def test_main_rejects_malformed_spec(tmp_path, capsys):
    bad = dict(EXAMPLE_B_SPEC)
    bad["blocks"] = [[0, 1], [1, 2, 3]]
    path = _write_spec(tmp_path, bad)
    code = main(["classify", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "atom 1" in err


def test_main_rejects_missing_file(capsys):
    code = main(["classify", "/nonexistent/spec.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_main_random_suite(capsys):
    code = main(["random-suite", "--count", "10", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "corrected-vs-oracle mismatches: 0" in out


def test_main_sweep(tmp_path, capsys):
    path = _write_spec(tmp_path, EXAMPLE_B_SPEC)
    code = main(["sweep-m", path, "--m-max", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") >= 5


def test_main_example_b(capsys):
    code = main(["example-b", "--p", "0.5", "--n-atoms", "10", "--m-max", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "block averages" in out


def test_main_random_suite_rejects_a_negative_seed(capsys):
    assert main(["random-suite", "--count", "2", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -1\n" and captured.out == ""


def test_main_bad_range(capsys):
    code = main(["random-suite", "--count", "5", "--dims", "10:2"])
    assert code == 2


@pytest.mark.parametrize(
    "count,dims,blocks", [("3", "2:2", "3:3"), ("50", "2:10", "3:4")]
)
def test_main_blocks_above_the_smallest_dims(capsys, count, dims, blocks):
    code = main(["random-suite", "--count", count, "--dims", dims, "--blocks", blocks])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"range {blocks} " in err and f"range {dims}:" in err


def test_random_instance_refuses_blocks_above_the_smallest_dims_before_drawing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError, match="block count range 3:4"):
        random_instance(rng, (2, 10), (3, 4))
    assert rng.bit_generator.state == state
    with pytest.raises(ValidationError, match="atom count range 2:10"):
        suite_instances(5, (2, 10), (3, 4))
    # a block range that starts at the smallest atom count still draws
    assert len(suite_instances(20, (3, 10), (3, 4))) == 22


def test_main_exit_code_on_mismatch(monkeypatch, capsys):
    import wctops.cli as cli_mod

    class FakeReport:
        mismatch_count = 3

        def to_dict(self):
            return {"mismatch_count": 3}

        def render_text(self):
            return "fake"

    monkeypatch.setattr(cli_mod, "_dispatch", lambda args: FakeReport())
    assert main(["random-suite", "--count", "1"]) == 3


@pytest.mark.parametrize("field,value", [("m_max", "abc"), ("tol", "x")])
def test_main_rejects_non_numeric_parameter(tmp_path, capsys, field, value):
    bad = dict(EXAMPLE_B_SPEC)
    bad[field] = value
    code = main(["classify", _write_spec(tmp_path, bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and field in err


def test_main_out_into_missing_directory(tmp_path, capsys):
    path = _write_spec(tmp_path, EXAMPLE_B_SPEC)
    out_path = tmp_path / "missing" / "report.json"
    code = main(["classify", path, "--out", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_path.exists()


def test_main_numeric_error_exit_code_on_a_coupled_action(tmp_path, monkeypatch, capsys):
    # an operator with one entry coupling two blocks fails the oracle's
    # rank-one block check, a NumericError
    from wctops import Action

    build = cli_mod.wct_action

    def coupled(ce, w, u):
        T = build(ce, w, u)

        def apply(x):
            y = T.apply(x)
            y[0] += 1e-3 * x[2]  # atoms 0 and 2 lie in different blocks
            return y

        def apply_adj(x):
            y = T.apply_adj(x)
            y[2] += 1e-3 * x[0]
            return y

        return Action(apply, apply_adj)

    monkeypatch.setattr(cli_mod, "wct_action", coupled)
    code = main(["classify", _write_spec(tmp_path, EXAMPLE_B_SPEC)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error:") and "not rank one" in err


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its descriptor is a scratch file's, so that it can be redirected."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("mismatches,code", [(0, 0), (1, 3)])
def test_main_exits_with_the_report_code_when_stdout_closes_early(
    tmp_path, monkeypatch, capsys, mismatches, code
):
    import wctops.cli as cli_mod

    report = cmd_classify(ProblemSpec.from_dict(EXAMPLE_B_SPEC))
    monkeypatch.setattr(report, "mismatches", [{}] * mismatches)
    monkeypatch.setattr(cli_mod, "_dispatch", lambda args: report)
    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr("sys.stdout", _ClosedPipe(handle.fileno()))
        assert main(["classify", "spec.json", "--format", "structured"]) == code
        # what is still buffered now goes to devnull
        assert os.path.samestat(os.fstat(handle.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_classify_operator_computes_the_defect_scalars_once_per_report(monkeypatch):
    # one call covers the oracle's defect norms and the symbol route's
    # binomial table, however many fields read them; a symbol-only report
    # past the dense limit makes one call too
    import wctops.classify as classify_mod
    import wctops.criteria as criteria_mod

    calls = []
    original = classify_mod._defect_scalars

    def counted(t, m_max):
        calls.append(m_max)
        return original(t, m_max)

    for module in (classify_mod, criteria_mod):
        monkeypatch.setattr(module, "_defect_scalars", counted)
    inst = fixture_projection()
    report = classify_operator(inst.space, inst.partition, inst.u, inst.w)
    assert calls == [4]
    assert [row["m"] for row in report.criteria_rows] == [1, 2, 3, 4]
    assert "defect_verdicts" not in report.to_dict()
    calls.clear()
    report = cmd_example_a(20, 1000).classification
    assert not report.matrix_route
    assert calls == [4]


def test_repeated_reports_draw_no_new_probes(monkeypatch):
    # the probes are sliced from one block drawn once, so a report at an
    # atom count already seen constructs no generator
    instances = suite_instances(30, seed=11)
    for inst in instances:
        classify_operator(inst.space, inst.partition, inst.u, inst.w)
    made = []
    original = np.random.Generator

    def counted(*args, **kwargs):
        made.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", counted)
    for inst in instances:
        report = classify_operator(inst.space, inst.partition, inst.u, inst.w)
        assert report.matrix_route
    assert made == []


def test_classify_operator_at_scale_leaves_the_block_tuples_unbuilt():
    grid = grid_space(100, 10000)
    x, y = grid.xs[:, None], grid.ys
    u = Mfunc(y ** (x / 8.0))
    w = Mfunc(np.sqrt((4.0 + x) * y))
    report = classify_operator(grid.space, grid.partition, u, w)
    assert not report.matrix_route and report.block_count == 100
    assert "blocks" not in vars(grid.partition)
    assert grid.partition.blocks[99] == tuple(range(990000, 1000000))


@pytest.mark.parametrize(
    "p,n_atoms,limit", [("0.5", "2000", 1074), ("0.999", "200", 108)]
)
def test_main_example_b_rejects_underflowing_masses(capsys, p, n_atoms, limit):
    code = main(["example-b", "--p", p, "--n-atoms", n_atoms])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: with p={p} the masses p*(1-p)**(n-1) underflow to 0 past "
        f"n_atoms={limit}; got n_atoms={n_atoms}\n"
    )


def test_fields_match_the_dataclass_fields_in_order():
    from dataclasses import fields

    from wctops.criteria import audit_rows, normal_case_equivalence, symbols

    def by_fields(rec):
        return {f.name: getattr(rec, f.name) for f in fields(rec)}

    records = []
    for inst in (fixture_projection(), fixture_support_gap()):
        records += audit(inst.cond_exp(), inst.w, inst.u, 4)
    normal = random_instance(np.random.default_rng(5), stratum="unimodular")
    ce = normal.cond_exp()
    st, oracle = symbols(ce, normal.w, normal.u), wct_oracle(ce, normal.w, normal.u)
    records += normal_case_equivalence(st, oracle, audit_rows(st, 4, oracle)).properties
    kinds = {type(rec).__name__ for rec in records}
    assert kinds == {"AuditRow", "PropertyCheck"}
    for rec in records:
        got = cli_mod._fields(rec)
        assert got == by_fields(rec) and list(got) == list(by_fields(rec))
