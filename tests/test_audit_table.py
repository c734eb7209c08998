"""The all-orders binomial table and the audit rows read from it.

``binomial_table`` evaluates ``J_m(t)`` and ``J'_m(t)`` for every order at
once, and ``audit_rows`` builds every row of a report from that table.
These tests hold the table to its closed forms, hold the rows to a plain
per-order reference that sums over k one order at a time, and check that
the table's check catches a wrong coefficient.
"""

from math import comb

import numpy as np
import pytest

import wctops.criteria as criteria_mod
from wctops import (
    NumericError,
    ValidationError,
    audit_agreement,
    audit_rows,
    binomial_table,
    symbols,
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


def test_table_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="m_max must be >= 1, got 0"):
        binomial_table(np.ones(3), 0)
    with pytest.raises(ValidationError, match="non-negative"):
        binomial_table(np.array([0.5, -0.1]), 3)
    overflow = r"binomial sums of order 4 overflow at t = 1\.000e\+120"
    with pytest.raises(NumericError, match=overflow):
        binomial_table(np.array([1.0, 1e120]), 4)


@pytest.mark.parametrize("delta", [1.0, -1.0])
def test_table_catches_a_coefficient_off_by_one(monkeypatch, delta):
    t = np.array([0.0, 0.5, 1.0, 2.0, 3.9])
    good = criteria_mod._alternating_binomials(20)
    for m in range(1, 21):
        for k in range(m + 1):
            bad = good.copy()
            bad[m - 1, k] += delta
            monkeypatch.setattr(criteria_mod, "_alternating_binomials", lambda _: bad)
            with pytest.raises(NumericError, match=rf"deviates from \(t-1\)\^{m} by"):
                binomial_table(t, 20)


def _dedup(values):
    out = []
    for v in sorted(values.tolist()):
        if not out or abs(v - out[-1]) > DEDUP_EPS:
            out.append(v)
    return tuple(out)


def _reference_rows(st, m_max, tol=None, verdicts=None):
    """The audit rows by one sum over k per order, as plain dicts."""
    t, prod, both = st.abs_alpha_sq, st.product, st.in_both
    quasi_paper_residual = float(np.abs(np.sqrt(t) - 1.0).max())
    rows = []
    for m in range(1, m_max + 1):
        v = verdicts[m - 1] if verdicts else None
        j = sum((-1) ** (m - k) * comb(m, k) * t**k for k in range(m + 1))
        j_prime = sum((-1) ** (m - k) * comb(m, k) * t ** (k - 1) for k in range(1, m + 1))
        residual = float((np.abs(j[both]) * prod[both]).max()) if both.any() else 0.0
        if v is not None:
            tol_m = v.tol
        elif tol is not None:
            tol_m = tol
        else:
            tol_m = 1e-9 * max(1.0, float(prod.max()) ** m)
        values = j_prime * st.gamma * st.beta
        m_iso_residual = float(np.abs(values - (1.0 if m % 2 else -1.0)).max())
        paper_m_iso = m_iso_residual <= PAPER_EPS
        rows.append(
            {
                "m": m,
                "tol": tol_m,
                "paper_quasi": quasi_paper_residual <= PAPER_EPS,
                "corrected_quasi": residual <= tol_m,
                "oracle_quasi": None if v is None else v.is_quasi_m_isometric,
                "quasi_residual": residual,
                "quasi_paper_residual": quasi_paper_residual,
                "oracle_quasi_norm": None if v is None else v.quasi_defect_norm,
                "paper_m_iso": paper_m_iso,
                "oracle_m_iso": (
                    v.is_m_isometric if v is not None else None if paper_m_iso else False
                ),
                "m_iso_paper_residual": m_iso_residual,
                "oracle_defect_norm": None if v is None else v.defect_norm,
                "e_r": None if v is None else _dedup(values),
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
        # with verdicts, each order is read at the oracle's threshold, not at tol
        for args in (
            (4, None, audit.verdicts),
            (4, 1e-3, audit.verdicts),
            (4, None, None),
            (3, 1e-6, None),
        ):
            rows = audit_rows(st, *args)
            expected = _reference_rows(st, *args)
            assert len(rows) == len(expected)
            for row, ref in zip(rows, expected):
                for name, value in ref.items():
                    _assert_same(getattr(row, name), value, (inst.label, args[:2], name))


def test_audit_rows_refuse_verdicts_for_other_orders():
    inst = fixture_projection()
    audit = audit_agreement(inst.cond_exp(), inst.w, inst.u, 4)
    with pytest.raises(ValidationError, match="4 oracle verdicts"):
        audit_rows(audit.symbols, 3, None, audit.verdicts)


def test_symbol_table_builds_one_read_only_table_per_order_count():
    inst = fixture_support_gap()
    st = symbols(inst.cond_exp(), inst.w, inst.u)
    j, j_prime = st.binomials(4)
    assert st.binomials(4)[0] is j
    assert not j.flags.writeable and not j_prime.flags.writeable


def test_reports_call_no_per_order_function():
    suite = cmd_random_suite(count=20)
    assert suite.mismatch_count == 0 and len(suite.instance_rows) == 22
    # a unimodular instance is normal, so its report also reads J'_m_max
    # for the normal-case identity; example-a at 20 x 1000 atoms runs
    # symbol-only
    inst = random_instance(np.random.default_rng(0), stratum="unimodular")
    report = classify_operator(inst.space, inst.partition, inst.u, inst.w)
    assert report.normal_case is not None and report.normal_case["applicable"]
    report = cmd_example_a().classification
    assert not report.matrix_route and len(report.criteria_rows) == 4
