import numpy as np
import pytest

from wctops import (
    CondExp,
    Mfunc,
    ValidationError,
    audit_agreement,
    audit_rows,
    binomial_table,
    essential_range,
    geometric_space,
    grid_space,
    j_double_prime_m,
    make_partition,
    make_space,
    normal_case_equivalence,
    singleton_blocks,
    spectrum_matches_range,
    symbols,
)
from wctops.cli import fixture_projection, fixture_support_gap
import dense_reference
from conftest import dense, mf, random_instances, wct_oracle


def _symbols_of(inst):
    return symbols(inst.cond_exp(), inst.w, inst.u)


def test_symbols_trivial(uniform4):
    _, _, ce = uniform4
    ones = mf([1, 1, 1, 1])
    st = symbols(ce, ones, ones)
    idx = st.block_index
    assert np.allclose(st.alpha[idx], 1.0)
    assert np.allclose(st.beta[idx], 1.0)
    assert np.allclose(st.gamma[idx], 1.0)
    assert st.in_S[idx].all() and st.in_G[idx].all()


def test_symbols_geometric_example():
    geo = geometric_space(0.5, 60)
    ce = CondExp(geo.space, geo.partition)
    n = geo.n.astype(float)
    st = symbols(ce, Mfunc(n), Mfunc(1.0 / n))
    assert np.abs(st.alpha[st.block_index] - 1.0).max() < 1e-12
    assert np.abs(st.abs_alpha_sq[st.block_index] - 1.0).max() < 1e-12


def test_symbols_grid_example_curves():
    grid = grid_space(6, 400)
    u = Mfunc(grid.y ** (grid.x / 8.0))
    w = Mfunc(np.sqrt((4.0 + grid.x) * grid.y))
    ce = CondExp(grid.space, grid.partition)
    st = symbols(ce, w, u)
    for blk in grid.partition.blocks:
        i = blk[0]
        x = grid.x[i]
        b = st.block_index[i]
        assert st.beta[b] == pytest.approx(4 / (4 + x), rel=1e-3)
        assert st.gamma[b] == pytest.approx((4 + x) / 2, rel=1e-3)
        assert st.abs_alpha_sq[b] == pytest.approx(
            64 * (4 + x) / (x + 12) ** 2, rel=1e-3
        )
        prod = st.beta[b] * st.gamma[b]
        assert prod == pytest.approx(2.0, rel=1e-3)


def test_symbols_support_sets():
    fx = fixture_support_gap()
    st = _symbols_of(fx)
    atoms = np.arange(4)
    assert atoms[st.in_S[st.block_index]].tolist() == [0, 1]
    assert atoms[st.in_G[st.block_index]].tolist() == [0, 1]
    assert atoms[st.in_both[st.block_index]].tolist() == [0, 1]


@pytest.mark.parametrize("t", [0.0, 0.25, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("m", range(1, 7))
def test_binomial_closures(t, m):
    j, j_prime = (float(table[m - 1, 0]) for table in binomial_table([t], m))
    assert j == pytest.approx((t - 1.0) ** m, rel=1e-11, abs=1e-11)
    identity_gap = t * j_prime - ((t - 1.0) ** m - (-1.0) ** m)
    assert abs(identity_gap) < 1e-11 * max(1.0, abs((t - 1.0) ** m) + 1)


def test_j_m_frozen_values():
    j, _ = binomial_table([1.0, 3.0, 0.0], 3)
    assert j[2, 0] == pytest.approx(0.0)
    assert j[1, 1] == pytest.approx(4.0)  # 1 - 2*3 + 9
    assert j[2, 2] == pytest.approx(-1.0)


def test_j_prime_frozen_values():
    _, j_prime = binomial_table([2.0, 5.0, 1.0], 3)
    assert j_prime[1, 0] == pytest.approx(0.0)  # -2 + 2
    assert j_prime[0, 1] == pytest.approx(1.0)
    assert j_prime[2, 2] == pytest.approx(1.0)  # 3 - 3 + 1


def test_j_double_prime_values():
    assert j_double_prime_m(1.0, 2) == pytest.approx(-1.0)
    assert j_double_prime_m(1.0, 3) == pytest.approx(1.0)
    assert j_double_prime_m(2.0, 2) == pytest.approx(0.0)


def test_j_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        binomial_table([-0.5], 2)
    with pytest.raises(ValidationError):
        binomial_table([1.0], 0)
    with pytest.raises(ValidationError):
        j_double_prime_m(1.0, 0)


def test_quasi_criterion_geometric_example():
    geo = geometric_space(0.5, 60)
    ce = CondExp(geo.space, geo.partition)
    n = geo.n.astype(float)
    st = symbols(ce, Mfunc(n), Mfunc(1.0 / n))
    for row in audit_rows(st, 4):
        assert row.paper_quasi and row.corrected_quasi


def test_quasi_criterion_support_gap_divergence():
    fx = fixture_support_gap()
    st = _symbols_of(fx)
    row = audit_rows(st, 2)[1]
    assert not row.paper_quasi
    assert row.corrected_quasi
    assert row.quasi_residual < 1e-14
    # the dense reference confirms the corrected reading
    ref = dense_reference.oracle(dense(fx.cond_exp(), fx.w, fx.u), 2)
    assert ref["quasi_defect_norms"][1] < 1e-12


def test_quasi_criterion_support_gap_by_hand():
    # matrices written out from the raw definition: T*^2 T^2 == T* T
    fx = fixture_support_gap()
    e = np.zeros((4, 4))
    for blk in ((0, 1), (2, 3)):
        for a in blk:
            for b in blk:
                e[a, b] = 0.5  # sqrt(1/4 * 1/4) / (1/2)
    t = np.diag(fx.w.values) @ e @ np.diag(fx.u.values)
    t2 = t @ t
    lhs = t2.conj().T @ t2
    rhs = t.conj().T @ t
    assert np.abs(lhs - rhs).max() < 1e-14


def test_quasi_criterion_projection(uniform4):
    _, _, ce = uniform4
    ones = mf([1, 1, 1, 1])
    st = symbols(ce, ones, ones)
    row = audit_rows(st, 3)[2]
    assert row.paper_quasi and row.corrected_quasi


def test_m_isometry_criterion_singleton_unimodular():
    space = make_space([0.4, 0.6])
    ce = CondExp(space, make_partition(space, singleton_blocks(2)))
    u = mf(np.exp(1j * np.array([0.3, -1.0])))
    w = mf([1.0, 1.0])
    rows = audit_agreement(ce, w, u, 3).rows
    for m in (1, 2, 3):
        v = rows[m - 1]
        assert v.paper_m_iso and v.oracle_m_iso
        target = 1.0 if m % 2 else -1.0
        assert v.e_r == pytest.approx((target,))


def test_m_isometry_criterion_projection_divergence(uniform4):
    _, _, ce = uniform4
    ones = mf([1, 1, 1, 1])
    rows = audit_agreement(ce, ones, ones, 2).rows
    for m in (1, 2):
        v = rows[m - 1]
        assert v.paper_m_iso  # the attained set hits the target exactly
        assert not v.oracle_m_iso  # but the defect norm is 1
        assert v.oracle_defect_norm == pytest.approx(1.0, abs=1e-12)


def test_m_isometry_criterion_grid_interval():
    grid = grid_space(4, 50)
    u = Mfunc(grid.y ** (grid.x / 8.0))
    w = Mfunc(np.sqrt((4.0 + grid.x) * grid.y))
    ce = CondExp(grid.space, grid.partition)
    (v,) = audit_agreement(ce, w, u, 1).rows
    assert not v.paper_m_iso and not v.oracle_m_iso
    # attained values J'_1(t) * product stay near 2, far from the target 1
    assert min(v.e_r) > 1.7


def test_normal_case_identity_operator():
    space = make_space([0.4, 0.6])
    ce = CondExp(space, make_partition(space, singleton_blocks(2)))
    u = mf(np.exp(1j * np.array([0.2, 2.2])))
    w = Mfunc(u.values.conj())
    st = symbols(ce, w, u)
    oracle = wct_oracle(ce, w, u, 3)
    report = normal_case_equivalence(st, oracle, 3, 1e-9)
    assert report.applicable and report.identity_ok and report.all_equal
    assert all(c.holds for c in report.properties)


def test_normal_case_all_false():
    space = make_space([0.5, 0.5])
    ce = CondExp(space, make_partition(space, [[0, 1]]))
    u = mf([2.0, 2.0])
    w = Mfunc(u.values.conj())
    st = symbols(ce, w, u)
    oracle = wct_oracle(ce, w, u, 3)
    report = normal_case_equivalence(st, oracle, 3, 1e-9)
    assert report.applicable and report.identity_ok and report.all_equal
    assert not any(c.holds for c in report.properties)


def test_normal_case_projection_breaks_equivalence(uniform4):
    # the known gap: a projection is quasi-m-isometric with symbol product
    # one, yet never isometric; the report records the disagreement
    _, _, ce = uniform4
    ones = mf([1, 1, 1, 1])
    st = symbols(ce, ones, ones)
    oracle = wct_oracle(ce, ones, ones, 3)
    report = normal_case_equivalence(st, oracle, 3, 1e-9)
    assert report.applicable and report.identity_ok
    assert not report.all_equal
    held = {c.name: c.holds for c in report.properties}
    assert held["quasi_isometric"] and held["symbol_product_one"]
    assert not held["isometric"]


def test_normal_case_not_applicable_for_non_normal():
    for inst in random_instances(seed=300, count=20, stratum="generic"):
        st = _symbols_of(inst)
        oracle = wct_oracle(inst.cond_exp(), inst.w, inst.u, 2)
        report = normal_case_equivalence(st, oracle, 2, 1e-9)
        if report.applicable:
            continue  # rare but legitimate: a random instance may be normal
        assert np.isnan(report.identity_residual)
        assert report.properties == ()


def test_normal_case_random_self_adjoint_equivalence():
    for inst in random_instances(seed=301, count=25, stratum="generic"):
        u = inst.u
        w = Mfunc(u.values.conj())
        ce = inst.cond_exp()
        st = symbols(ce, w, u)
        oracle = wct_oracle(ce, w, u, 4)
        report = normal_case_equivalence(st, oracle, 4, 1e-8)
        assert report.applicable
        assert report.identity_residual < 1e-10
        assert report.j_double_prime_residual < 1e-8
        assert report.all_equal


def test_audit_agreement_projection_fixture():
    fx = fixture_projection()
    report = audit_agreement(fx.cond_exp(), fx.w, fx.u, 4)
    assert report.agreed
    kinds = {(d.kind, d.m) for d in report.divergences}
    assert kinds == {("m_isometry", m) for m in range(1, 5)}
    for row in report.rows:
        assert row.paper_quasi and row.corrected_quasi and row.oracle_quasi
        assert row.paper_m_iso and not row.oracle_m_iso


def test_audit_agreement_support_gap_fixture():
    fx = fixture_support_gap()
    report = audit_agreement(fx.cond_exp(), fx.w, fx.u, 4)
    assert report.agreed
    kinds = {(d.kind, d.m) for d in report.divergences}
    assert kinds == {("quasi", m) for m in range(1, 5)}
    for row in report.rows:
        assert not row.paper_quasi and row.corrected_quasi and row.oracle_quasi


def test_audit_agreement_random_batch():
    for inst in random_instances(seed=400, count=40):
        report = audit_agreement(inst.cond_exp(), inst.w, inst.u, 3)
        assert report.agreed, f"mismatch on {inst.label} ({inst.stratum})"


def test_essential_range_dedup():
    values = essential_range(np.array([1.0, 1.0 + 1e-12, 2.0, 0.0]))
    assert len(values) == 3


def test_spectrum_matches_range_positive(uniform4):
    _, _, ce = uniform4
    u = mf([2, 0, 1, 1])
    w = mf([1, 1, 1, 1])
    st = symbols(ce, w, u)
    spec = wct_oracle(ce, w, u, 0).spectrum
    ok, dist = spectrum_matches_range(spec, st.alpha[st.block_index])
    assert ok and dist < 1e-10


def test_spectrum_matches_range_detects_mismatch():
    ok, dist = spectrum_matches_range(np.ones(2), np.array([2.0, 2.0]))
    assert not ok and dist == pytest.approx(1.0)
