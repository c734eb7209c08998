"""The spec reader reads plain JSON lists in bulk and every other form of
an entry by one per-entry reader, ``_read_entries``; both give the same
spec.

A spec written with bare numbers and ``[re, im]`` pairs mixed, integers,
numpy scalars and integral-float atom indices must parse equal to the same
spec written as plain float pairs and integer indices, and the bulk reader
must give bit-for-bit the floats and complex numbers of the per-entry
reader.  A bad entry is refused with one fixed message per kind of fault.
"""

import json

import numpy as np
import pytest

import wctops.cli as cli
from wctops.cli import ProblemSpec
from wctops.errors import ValidationError

hypothesis = pytest.importorskip("hypothesis")
st_ = hypothesis.strategies

# integers past 2**53 round on the way to a double, and 2**1023 is the
# largest power of two that a double holds
NUMBERS = st_.one_of(
    st_.integers(-(2**80), 2**80),
    st_.integers(-(2**1023), 2**1023),
    st_.floats(allow_nan=False),
)


def _bits(values) -> list[int]:
    """The bit patterns of a tuple of floats or complex numbers, so that
    -0.0 and 0.0 differ."""
    return np.array(values, dtype=complex).view(np.int64).tolist()


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(data=st_.data(), n=st_.integers(1, 12))
def test_mixed_entry_forms_parse_equal_to_plain_pairs(data, n):
    draw = data.draw
    weights = draw(st_.lists(NUMBERS, min_size=n, max_size=n))
    pairs = st_.lists(st_.tuples(NUMBERS, NUMBERS), min_size=n, max_size=n)
    u, w = draw(pairs), draw(pairs)
    perm = draw(st_.permutations(range(n)))
    cuts = sorted(draw(st_.sets(st_.integers(1, max(1, n - 1)), max_size=n - 1)))
    blocks = [list(perm[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]

    def number(v):
        # a number as written: unchanged, or as a numpy scalar
        return draw(st_.sampled_from([v, np.float64(v)]))

    def entry(re, im):
        if im == 0 and draw(st_.booleans()):
            return number(re)
        return [number(re), number(im)]

    def index(i):
        return draw(st_.sampled_from([i, float(i), np.int64(i)]))

    plain = {
        "weights": [float(v) for v in weights],
        "blocks": blocks,
        "u": [[float(re), float(im)] for re, im in u],
        "w": [[float(re), float(im)] for re, im in w],
    }
    mixed = {
        "weights": [number(v) for v in weights],
        "blocks": [[index(i) for i in blk] for blk in blocks],
        "u": [entry(re, im) for re, im in u],
        "w": [entry(re, im) for re, im in w],
    }
    # the bulk reader reads the plain lists; the per-entry reader agrees bit for bit
    reference = {name: cli._read_entries(plain[name], name, pairs=True) for name in ("u", "w")}
    reference["weights"] = cli._read_entries(plain["weights"], "weights", pairs=False)
    for name in ("u", "w"):
        assert _bits(cli._read_numbers(plain[name], name, pairs=True)) == _bits(reference[name])
    assert _bits(cli._read_numbers(plain["weights"], "weights", pairs=False)) == _bits(reference["weights"])
    # a weight <= 0 or a value that is not finite is refused, by the same
    # message for both forms
    try:
        spec = ProblemSpec.from_dict(plain)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as refused:
            ProblemSpec.from_dict(mixed)
        assert str(refused.value) == str(exc)
        return
    assert ProblemSpec.from_dict(mixed).to_dict() == spec.to_dict()
    assert all(type(i) is int for blk in spec.partition.blocks for i in blk)
    for name in ("u", "w"):
        assert _bits(getattr(spec, name).values) == _bits(reference[name])
    assert _bits(spec.space.weights) == _bits(reference["weights"])


def test_plain_numbers_are_read_as_reals_and_pairs_as_complex():
    values = [1, -2.5, 0.0, -0.0, 5e-324, -3, 2.0**150]
    plain = cli._read_numbers(values, "u", pairs=True)
    assert plain.dtype == np.float64
    assert _bits(plain) == _bits([float(v) for v in values])
    pairs = cli._read_numbers([[v, 0] for v in values], "u", pairs=True)
    assert pairs.dtype == np.complex128
    assert _bits(pairs) == _bits(plain)


def test_a_plain_number_spec_classifies_as_its_pair_form():
    plain = {
        "weights": [0.5, 0.25, 0.125, 0.0625, 0.0625],
        "blocks": [[2], [0, 1, 3], [4]],
        "u": [1, -0.5, 0.0, -0.0, 3],
        "w": [-1.0, 2, 0, 4.5, -2],
        "m_max": 5,
    }
    pairs = {**plain, "u": [[v, 0] for v in plain["u"]], "w": [[v, 0] for v in plain["w"]]}
    real, cplx = ProblemSpec.from_dict(plain), ProblemSpec.from_dict(pairs)
    assert real.u.values.dtype == real.w.values.dtype == np.float64
    assert cplx.u.values.dtype == cplx.w.values.dtype == np.complex128
    assert json.dumps(real.to_dict()) == json.dumps(cplx.to_dict())
    reports = [json.dumps(cli.cmd_classify(spec).to_dict()) for spec in (real, cplx)]
    assert reports[0] == reports[1]


# an integer of 401 digits: JSON reads it exactly, and no double holds it
HUGE = 10**400
PAIR = "a number or an [re, im] pair"


@pytest.mark.parametrize(
    "field,values,message",
    [
        # a pair's types are checked before either part is converted
        ("u", [[HUGE, "a"], 1], f"'u[0]': expected {PAIR}, got [1{'0' * 400}, 'a']"),
        ("u", [1, HUGE], "'u[1]': an integer of 1329 bits is outside the double range"),
        *(
            (field, [1, entry], f"'{field}[1]': expected {PAIR}, got {text}")
            for field in ("u", "w")
            for entry, text in (
                ([True, 1], "[True, 1]"),
                ("1", "'1'"),
                ([1, 2, 3], "[1, 2, 3]"),
                (None, "None"),
            )
        ),
        ("weights", [1, True], "'weights[1]': expected a number, got True"),
        ("weights", [1, HUGE], "'weights[1]': an integer of 1329 bits is outside the double range"),
        # a list of pairs is read in bulk, and refused at its first entry
        ("weights", [[1, 0], [1, 0]], "'weights[0]': expected a number, got [1, 0]"),
    ],
)
def test_a_bad_entry_is_refused_with_its_message(field, values, message):
    data = {"weights": [1, 1], "blocks": [[0], [1]], "u": [1, 1], "w": [1, 1], field: values}
    with pytest.raises(ValidationError) as refused:
        ProblemSpec.from_dict(data)
    assert str(refused.value) == f"spec field {message}"
