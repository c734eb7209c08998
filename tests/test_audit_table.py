"""The all-orders binomial table and the audit rows read from it.

``binomial_table`` evaluates ``J_m(t)`` and ``J'_m(t)`` for every order at
once, in closed form, and ``audit_rows`` builds every row of a report from
that table.  These tests hold the table to the exact alternating sums in
``Fraction`` arithmetic, and the rows to a plain per-order reference that
sums over k one order at a time.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

import wctops.criteria as criteria_mod
from dense_reference import exact_sums
from wctops import (
    CondExp,
    DefectOracle,
    Mfunc,
    NumericError,
    ValidationError,
    audit_agreement,
    audit_rows,
    binomial_table,
    make_partition,
    make_space,
    symbols,
    wct_action,
)
from wctops.cli import (
    classify_operator,
    cmd_example_a,
    cmd_random_suite,
    fixture_projection,
    fixture_support_gap,
    random_instance,
    suite_instances,
)
from wctops.criteria import DEDUP_EPS, PAPER_EPS

hypothesis = pytest.importorskip("hypothesis")
st_ = hypothesis.strategies


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    st_.lists(
        st_.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        min_size=1,
        max_size=12,
    )
)
def test_table_rows_match_their_closed_forms(values):
    t = np.array(values)
    j, j_prime = binomial_table(t, 20)
    assert j.shape == j_prime.shape == (20, t.size)
    for m in range(1, 21):
        closed = (t - 1.0) ** m
        reduced = closed - (-1.0) ** m
        # each element to roundoff in the moduli of its terms, which add up
        # to (1 + t)^m; up to m = 8 also to the closed form's own scale
        size = np.maximum(1.0, (1.0 + t) ** m)
        assert (np.abs(j[m - 1] - closed) <= 1e-12 * size).all()
        assert (np.abs(t * j_prime[m - 1] - reduced) <= 1e-12 * size).all()
        if m <= 8:
            assert np.abs(j[m - 1] - closed).max() <= 1e-11 * max(
                1.0, np.abs(closed).max()
            )
            assert np.abs(t * j_prime[m - 1] - reduced).max() <= 1e-11 * max(
                1.0, np.abs(reduced).max()
            )


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(
    st_.lists(
        st_.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_table_matches_exact_sums_within_its_bound(values):
    # the table's powers come from cumulative products; each element stays
    # within 1e-12 (1 + t)^m of the exact sum of the same t
    t = np.array(values)
    m_max = 12
    j, j_prime = binomial_table(t, m_max)
    for b, x in enumerate(map(Fraction, values)):
        for m in range(1, m_max + 1):
            exact = sum((-1) ** (m - k) * comb(m, k) * x**k for k in range(m + 1))
            exact_prime = sum(
                (-1) ** (m - k) * comb(m, k) * x ** (k - 1) for k in range(1, m + 1)
            )
            bound = 1e-12 * max(1.0, float((1 + x) ** m))
            assert abs(float(Fraction(j[m - 1, b]) - exact)) <= bound, (m, values[b])
            assert abs(float(Fraction(j_prime[m - 1, b]) - exact_prime)) <= bound, (m, values[b])


def test_table_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="m_max must be >= 1, got 0"):
        binomial_table(np.ones(3), 0)
    with pytest.raises(ValidationError, match="non-negative"):
        binomial_table(np.array([0.5, -0.1]), 3)
    overflow = r"binomial sums of order 4 overflow at t = 1\.000e\+120"
    with pytest.raises(NumericError, match=overflow):
        binomial_table(np.array([1.0, 1e120]), 4)


# t = 0 (c_m is its limit), 1/2 (where c_m changes form), 1 -/+ 1e-9 (the
# quasi residual (t - 1)^m is tiny), 2 (c_m = 0 at even m) and values
# between, up to 3
REFEREE_T = (
    0.0, 1e-300, 1e-9, 0.25, 0.5 - 2**-53, 0.5, 0.75, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5, 2.0, 2.5, 3.0
)


def test_table_matches_exact_sums_up_to_order_60():
    # the closed forms cancel nowhere: every element lies within 1e-13 of
    # max(1, |exact|), where the sums lost about eps 4^m at t = 3
    j, j_prime = binomial_table(np.array(REFEREE_T), 60)
    for b, x in enumerate(map(Fraction, REFEREE_T)):
        for m, (exact, exact_prime) in enumerate(zip(*exact_sums(x, 60)), start=1):
            for got, want in ((j[m - 1, b], exact), (j_prime[m - 1, b], exact_prime)):
                bound = Fraction(1e-13) * max(1, abs(want))
                assert abs(Fraction(got) - want) <= bound, (REFEREE_T[b], m, got, float(want))


def _dedup(values):
    values = sorted(values.tolist())
    tol = DEDUP_EPS * max([1.0] + [abs(v) for v in values])
    out = []
    for v in values:
        if not out or abs(v - out[-1]) > tol:
            out.append(v)
    return tuple(out)


def _reference_rows(st, m_max, oracle=None):
    """The audit rows by one sum over k per order, as plain dicts, with the
    ``oracle``'s defect norms read at the threshold ``1e-9 max(1, |T|^(2m))``."""
    t, prod, both = st.abs_alpha_sq, st.product, st.in_both
    quasi_paper_residual = float(np.abs(np.sqrt(t) - 1.0).max())
    rows = []
    norms = None if oracle is None else oracle.defect_norms(m_max)
    for m in range(1, m_max + 1):
        if oracle is None:
            tol_m = 1e-9 * max(1.0, float(prod.max()) ** m)
        else:
            tol_m = 1e-9 * max(1.0, oracle.norm ** (2 * m))
            d, q = (float(column[m - 1]) for column in norms)
        j = sum((-1) ** (m - k) * comb(m, k) * t**k for k in range(m + 1))
        j_prime = sum((-1) ** (m - k) * comb(m, k) * t ** (k - 1) for k in range(1, m + 1))
        residual = float((np.abs(j[both]) * prod[both]).max()) if both.any() else 0.0
        values = j_prime * st.gamma * st.beta
        m_iso_residual = float(np.abs(values - (1.0 if m % 2 else -1.0)).max())
        paper_m_iso = m_iso_residual <= PAPER_EPS
        rows.append(
            {
                "m": m,
                "tol": tol_m,
                "paper_quasi": quasi_paper_residual <= PAPER_EPS,
                "corrected_quasi": residual <= tol_m,
                "oracle_quasi": None if oracle is None else q <= tol_m,
                "quasi_residual": residual,
                "quasi_paper_residual": quasi_paper_residual,
                "oracle_quasi_norm": None if oracle is None else q,
                "paper_m_iso": paper_m_iso,
                "oracle_m_iso": (
                    d <= tol_m if oracle is not None else None if paper_m_iso else False
                ),
                "m_iso_paper_residual": m_iso_residual,
                "oracle_defect_norm": None if oracle is None else d,
                "e_r": None if oracle is None else _dedup(values),
            }
        )
    return rows


def _assert_same(value, expected, where):
    if isinstance(expected, float):
        assert abs(value - expected) <= 1e-13 * max(1.0, abs(expected)), where
    elif isinstance(expected, tuple):
        assert len(value) == len(expected), where
        for a, b in zip(value, expected):
            _assert_same(a, b, where)
    else:
        assert value == expected and type(value) is type(expected), where


def test_audit_rows_match_a_per_order_reference():
    instances = suite_instances(200, seed=42)
    assert [inst.label for inst in instances[:2]] == [
        fixture_projection().label,
        fixture_support_gap().label,
    ]
    for inst in instances:
        audit = audit_agreement(inst.cond_exp(), inst.w, inst.u, 4)
        st = audit.symbols
        # with the oracle, each order is read at the oracle's threshold; the
        # oracle has no order of its own, so it serves a table of any order
        for args in ((4, audit.oracle), (3, audit.oracle), (4, None), (3, None)):
            rows = audit_rows(st, *args)
            expected = _reference_rows(st, *args)
            assert len(rows) == len(expected)
            for row, ref in zip(rows, expected):
                for name, value in ref.items():
                    _assert_same(getattr(row, name), value, (inst.label, args[:2], name))


def test_one_ladder_gives_each_route_its_own_table(monkeypatch):
    # a report's one _defect_scalars call holds the oracle's t and the
    # symbols' side by side; each route's columns are, bit for bit, what a
    # call on its own values gives: the standalone oracle's defect norms and
    # binomial_table of the symbols' t
    ladders = []
    original = criteria_mod._defect_scalars

    def kept(t, m_max):
        ladders.append(original(t, m_max))
        return ladders[-1]

    monkeypatch.setattr(criteria_mod, "_defect_scalars", kept)
    instances = suite_instances(300, seed=3)
    assert len(instances) == 302
    for inst in instances:
        ladders.clear()
        report = classify_operator(inst.space, inst.partition, inst.u, inst.w, 6)
        assert len(ladders) == 1, inst.label
        ce = inst.cond_exp()
        oracle = DefectOracle(wct_action(ce, inst.w, inst.u), inst.partition)
        keys = ("oracle_defect_norm", "oracle_quasi_norm")
        for key, norms in zip(keys, oracle.defect_norms(6)):
            got = np.array([row[key] for row in report.criteria_rows])
            assert got.tobytes() == norms.tobytes(), (inst.label, key)
        t = symbols(ce, inst.w, inst.u).abs_alpha_sq
        for got, table in zip(ladders[0], binomial_table(t, 6)):
            assert got[:, -t.size:].tobytes() == table.tobytes(), inst.label


def test_both_routes_overflowing_report_the_oracles_message():
    # |E(uw)|^2 = 1e120 on two singletons: the symbols' table overflows at
    # order 3, but the oracle's norms, checked first, overflow at order 2
    space = make_space([1.0, 1.0])
    partition = make_partition(space, [[0], [1]])
    big = Mfunc(np.full(2, 1e30))
    st = symbols(CondExp(space, partition), big, big)
    with pytest.raises(NumericError, match="binomial sums of order 4 overflow"):
        binomial_table(st.abs_alpha_sq, 4)
    message = r"^the powers of T overflow: the defect norms of order 2 are not finite$"
    with pytest.raises(NumericError, match=message):
        classify_operator(space, partition, big, big, 4)


def test_audit_agreement_holds_at_order_32():
    # the alternating sums' roundoff grew past the threshold 1e-9 |T|^(2m)
    # from about m = 25 on: 88 mismatches at m_max = 32
    for inst in suite_instances(200, seed=42):
        audit = audit_agreement(inst.cond_exp(), inst.w, inst.u, 32)
        assert not audit.mismatches, inst.label


def test_reports_call_no_per_order_function():
    suite = cmd_random_suite(count=20)
    assert suite.mismatch_count == 0 and len(suite.instance_rows) == 22
    # a unimodular instance is normal, so its report also fills in the
    # normal case; example-a at 20 x 1000 atoms runs symbol-only
    inst = random_instance(np.random.default_rng(0), stratum="unimodular")
    report = classify_operator(inst.space, inst.partition, inst.u, inst.w)
    assert report.normal_case is not None
    report = cmd_example_a().classification
    assert not report.matrix_route and len(report.criteria_rows) == 4


def _attained_reference(values, rel_tol):
    """Each row sorted, a value kept when it lies more than the row's
    tolerance above the last value kept."""
    rows = []
    for row in np.sort(values, axis=1).tolist():
        tol = rel_tol * max(1.0, abs(row[0]), abs(row[-1]))
        kept = [row[0]]
        for v in row[1:]:
            if abs(v - kept[-1]) > tol:
                kept.append(v)
        rows.append(tuple(kept))
    return rows


# a row's values: centres, each repeated exactly or within the tolerance
ATTAINED_ROWS = st_.lists(
    st_.lists(
        st_.tuples(
            st_.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            st_.lists(st_.sampled_from([0.0, 0.0, 2e-10, -3e-10, 6e-10]), min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=6,
)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(ATTAINED_ROWS, st_.sampled_from([0, None]))
def test_attained_rows_equal_the_loop(clusters, masked_min):
    # rows of exact copies, of clusters within the tolerance and of distinct
    # values, of equal length; masked_min 0 sends every table through the
    # row masks, None keeps the size at which they start
    rows = [[c + j * max(1.0, abs(c)) for c, jitter in row for j in jitter] for row in clusters]
    width = max(map(len, rows))
    values = np.array([(row * width)[:width] for row in rows])
    with pytest.MonkeyPatch.context() as mp:
        if masked_min is not None:
            mp.setattr(criteria_mod, "_MASKED_MIN", masked_min)
        got = criteria_mod._attained_rows(values, DEDUP_EPS)
    assert got == _attained_reference(values, DEDUP_EPS)
    assert all(type(v) is float for row in got for v in row)


def test_attained_rows_of_a_large_table_take_each_row_kind():
    # 6 x 32 values, past _MASKED_MIN; with rel_tol = 2^-30 a row in
    # [-1, 1] has the tolerance t = 2^-30 exactly, so a gap or a span of
    # exactly t is within it
    t = 2.0**-30
    rng = np.random.default_rng(3)
    values = np.array(
        [
            [0.0, t] + [0.01 * (i + 1) for i in range(30)],  # a tied gap
            [0.0, t] * 16,  # a tied span: one value
            [2 * t * i for i in range(32)],  # every gap past t
            [0.5 + t * (i % 2) for i in range(32)],
            np.repeat(rng.normal(size=8), 4) + rng.choice([0.0, t / 4], 32),  # clusters
            np.sort(rng.normal(size=32)) * 10.0,  # distinct values
        ]
    )
    assert values.size >= criteria_mod._MASKED_MIN
    got = criteria_mod._attained_rows(values, t)
    assert got == _attained_reference(values, t)
    assert [len(row) for row in got] == [31, 1, 32, 1, 8, 32]
