import numpy as np
import pytest

from wctops import (
    CondExp,
    Mfunc,
    Partition,
    ValidationError,
    audit_agreement,
    audit_rows,
    binomial_table,
    essential_range,
    geometric_space,
    grid_space,
    make_partition,
    make_space,
    normal_case_equivalence,
    singleton_blocks,
    spectrum_deviation,
    symbols,
)
from wctops.cli import classify_operator, fixture_projection, fixture_support_gap
import dense_reference
from conftest import dense, mf, random_instances, wct_oracle


def _symbols_of(inst):
    return symbols(inst.cond_exp(), inst.w, inst.u)


def _normal_case(ce, w, u, m_max):
    """``normal_case_equivalence`` of ``f -> w E(u f)``, read from its audit
    rows of orders 1..m_max, so decided at the rows' order-1 threshold."""
    st, oracle = symbols(ce, w, u), wct_oracle(ce, w, u)
    return normal_case_equivalence(st, oracle, audit_rows(st, m_max, oracle))


def test_symbols_trivial(uniform4):
    _, _, ce = uniform4
    ones = mf([1, 1, 1, 1])
    st = symbols(ce, ones, ones)
    idx = ce.partition.block_index
    assert np.allclose(st.alpha[idx], 1.0)
    assert np.allclose(st.beta[idx], 1.0)
    assert np.allclose(st.gamma[idx], 1.0)
    assert st.in_S[idx].all() and st.in_G[idx].all()


def test_symbols_geometric_example():
    geo = geometric_space(0.5, 60)
    ce = CondExp(geo.space, geo.partition)
    n = geo.n.astype(float)
    st = symbols(ce, Mfunc(n), Mfunc(1.0 / n))
    assert np.abs(st.alpha[ce.partition.block_index] - 1.0).max() < 1e-12
    assert np.abs(st.abs_alpha_sq[ce.partition.block_index] - 1.0).max() < 1e-12


def test_symbols_grid_example_curves():
    grid = grid_space(6, 400)
    x, y = grid.xs[:, None], grid.ys
    u = Mfunc(y ** (x / 8.0))
    w = Mfunc(np.sqrt((4.0 + x) * y))
    ce = CondExp(grid.space, grid.partition)
    st = symbols(ce, w, u)
    for blk, x in zip(grid.partition.blocks, grid.xs):
        b = ce.partition.block_index[blk[0]]
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
    atoms, idx = np.arange(4), fx.partition.block_index
    assert atoms[st.in_S[idx]].tolist() == [0, 1]
    assert atoms[st.in_G[idx]].tolist() == [0, 1]
    assert atoms[st.in_both[idx]].tolist() == [0, 1]


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


def test_j_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        binomial_table([-0.5], 2)
    with pytest.raises(ValidationError):
        binomial_table([1.0], 0)


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
    x, y = grid.xs[:, None], grid.ys
    u = Mfunc(y ** (x / 8.0))
    w = Mfunc(np.sqrt((4.0 + x) * y))
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
    report = _normal_case(ce, w, u, 3)
    assert report is not None and report.identity_ok and report.all_equal
    assert all(c.holds for c in report.properties)


def test_normal_case_all_false():
    space = make_space([0.5, 0.5])
    ce = CondExp(space, make_partition(space, [[0, 1]]))
    u = mf([2.0, 2.0])
    w = Mfunc(u.values.conj())
    report = _normal_case(ce, w, u, 3)
    assert report is not None and report.identity_ok and report.all_equal
    assert not any(c.holds for c in report.properties)


def test_normal_case_projection_breaks_equivalence(uniform4):
    # the known gap: a projection is quasi-m-isometric with symbol product
    # one, yet never isometric; the report records the disagreement
    _, _, ce = uniform4
    ones = mf([1, 1, 1, 1])
    report = _normal_case(ce, ones, ones, 3)
    assert report is not None and report.identity_ok
    assert not report.all_equal
    held = {c.name: c.holds for c in report.properties}
    assert held["quasi_isometric"] and held["symbol_product_one"]
    assert not held["isometric"]


def test_normal_case_not_applicable_for_non_normal():
    non_normal = 0
    for inst in random_instances(seed=300, count=20, stratum="generic"):
        oracle = wct_oracle(inst.cond_exp(), inst.w, inst.u)
        if oracle.normality()["normal"]:
            continue  # rare but legitimate: a random instance may be normal
        non_normal += 1
        st = _symbols_of(inst)
        assert normal_case_equivalence(st, oracle, audit_rows(st, 2, oracle)) is None
    assert non_normal


def test_normal_case_random_self_adjoint_equivalence():
    for inst in random_instances(seed=301, count=25, stratum="generic"):
        u = inst.u
        w = Mfunc(u.values.conj())
        report = _normal_case(inst.cond_exp(), w, u, 4)
        assert report is not None
        assert report.identity_residual < 1e-10
        assert report.all_equal


def test_normal_case_reads_every_order_of_the_oracle():
    # singletons with |t - 1| < 1: the defect norms fall with m, so the
    # smallest of six orders is the sixth
    space = make_space([0.5, 0.5])
    ce = CondExp(space, make_partition(space, singleton_blocks(2)))
    u, w = mf([1.2, 0.9]), mf([1.0, 1.0])
    dn, qn = wct_oracle(ce, w, u).defect_norms(6)
    assert len(dn) == 6 and dn[5] < dn[:5].min() and qn[5] < qn[:5].min()
    report = _normal_case(ce, w, u, 6)
    residuals = {c.name: c.residual for c in report.properties}
    assert residuals["m_isometric"] == dn[5]
    assert residuals["quasi_m_isometric"] == qn[5]


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
    # all zero: the tolerance is 0 and only equal values merge
    assert essential_range(np.zeros(3)) == (0j,)


@pytest.mark.parametrize("values", [[1e-9, 2e-9], [1e-10, 3e-10], [1e10, 3e10]])
def test_essential_range_dedup_scales_with_the_values(values):
    # the tolerance is relative to the largest modulus, so distinct small
    # values stay apart and a relative 1e-12 change of large ones merges
    values = np.array(values)
    assert essential_range(values) == tuple(complex(v) for v in values)
    assert essential_range(np.concatenate([values, values * (1 + 1e-12)])) == tuple(
        complex(v) for v in values
    )


def test_essential_range_drops_a_copy_sorted_past_a_nearby_value():
    # sorted by real part, the middle value falls between two copies 2 ulps
    # apart, so the copy must be checked against more than the last value
    # kept; on singletons with unit masses and w = 1, E(uw) is u
    re, im = 0.7648421872844885, 0.644217687237691
    u = np.array([re + 1j * im, 0.7648421872844886 - 1j * im, 0.7648421872844887 + 1j * im])
    space = make_space([1.0, 1.0, 1.0])
    partition = make_partition(space, singleton_blocks(3))
    report = classify_operator(space, partition, mf(u), mf(np.ones(3)))
    assert report.essential_range == [[re, im], [0.7648421872844886, -im]]


def test_essential_range_matches_a_pairwise_greedy_dedup():
    # near copies of a few centres, some with real parts tied or within tol
    # of another centre's: each value sorted by real part is kept unless it
    # lies within tol of a value kept before it
    rng = np.random.default_rng(3)
    centres = np.array([1.0, 1.0 + 1j, 1.0 - 1j, 1.0 + 5e-10 + 0.5j, -2j, 0.25])
    for _ in range(50):
        values = rng.choice(centres, 40) * (1 + rng.uniform(-4e-10, 4e-10, 40))
        tol = 1e-9 * np.abs(values).max()
        kept = []
        for v in values[np.lexsort((values.imag, values.real))].tolist():
            if all(abs(v - k) > tol for k in kept):
                kept.append(v)
        assert essential_range(values) == tuple(kept)


def _two_singletons(u, w):
    space = make_space([0.5, 0.5])
    partition = make_partition(space, singleton_blocks(2))
    return space, partition, mf(u), mf(w)


def test_spectrum_deviation_positive(uniform4):
    _, _, ce = uniform4
    u = mf([2, 0, 1, 1])
    w = mf([1, 1, 1, 1])
    st = symbols(ce, w, u)
    assert spectrum_deviation(wct_oracle(ce, w, u), st.alpha) < 1e-10


def test_spectrum_deviation_detects_mismatch():
    # T is the identity on two atoms: each block's value 1 is 1 from 2,
    # relative to |T| = 1
    space, partition, u, w = _two_singletons([1.0, 1.0], [1.0, 1.0])
    oracle = wct_oracle(CondExp(space, partition), w, u)
    assert spectrum_deviation(oracle, np.array([2.0, 2.0])) == pytest.approx(1.0)


def test_spectrum_deviation_sees_block_order():
    # the set {1, 3} matches {3, 1}; the blocks' values do not
    space, partition, u, w = _two_singletons([1.0, 3.0], [1.0, 1.0])
    ce = CondExp(space, partition)
    oracle, st = wct_oracle(ce, w, u), symbols(ce, w, u)
    assert spectrum_deviation(oracle, st.alpha) < 1e-15
    assert spectrum_deviation(oracle, st.alpha[::-1]) == pytest.approx(2.0 / 3.0)


def test_spectrum_deviation_at_zero_norm():
    space, partition, u, w = _two_singletons([0.0, 0.0], [1.0, 1.0])
    oracle = wct_oracle(CondExp(space, partition), w, u)
    assert oracle.norm == 0.0
    assert spectrum_deviation(oracle, np.zeros(2)) == 0.0
    assert spectrum_deviation(oracle, np.array([0.0, 1e-300])) == np.inf


def test_equal_block_values_are_each_listed(uniform4):
    # both blocks of the averaging projection have E(uw) = 1: the spectrum
    # lists the value twice, once per block, and the range once
    space, partition, _ = uniform4
    report = classify_operator(space, partition, mf(np.ones(4)), mf(np.ones(4)), m_max=1)
    assert report.block_count == 2 and report.spectrum_zeros == 2
    assert np.allclose([complex(*z) for z in report.spectrum], [1.0, 1.0], atol=1e-15)
    assert report.essential_range == [[1.0, 0.0]]
    assert report.spectrum_match["ok"] and report.spectrum_match["distance"] < 1e-15


def test_nilpotent_block_has_value_zero():
    # u = (1, 0), w = (0, 1) on one block: T != 0 maps the first atom onto
    # the second, so T^2 = 0 and E(uw) = 0
    space = make_space([0.5, 0.5])
    partition = make_partition(space, [[0, 1]])
    report = classify_operator(space, partition, mf([1.0, 0.0]), mf([0.0, 1.0]), m_max=1)
    assert report.spectrum == [[0.0, 0.0]] and report.spectrum_zeros == 1
    assert report.spectrum_match == {"ok": True, "distance": 0.0}
    assert report.criteria_rows[0]["oracle_defect_norm"] > 0.5


@pytest.mark.parametrize(
    "u,w", [([1e5, 3e5], [1e5, 1e5]), ([1e-9, 2e-9], [1.0, 1.0])],
    ids=["diag(1e10, 3e10)", "diag(1e-9, 2e-9)"],
)
def test_spectrum_match_is_relative_to_the_norm(u, w):
    # a match to an absolute 1e-8 would fail the first, exact spectrum and
    # take every value of the second for zero
    report = classify_operator(*_two_singletons(u, w), m_max=1)
    expected = np.array(u) * np.array(w)
    assert np.allclose([complex(*z) for z in report.spectrum], expected, rtol=1e-15, atol=0)
    assert report.spectrum_zeros == 0
    assert report.spectrum_match["ok"] and report.spectrum_match["distance"] < 1e-14
    assert len(report.essential_range) == 2


@pytest.mark.parametrize("c", [1.0, 1e5])
def test_attained_values_dedup_scales_with_the_row(c):
    # 50 blocks of three atoms with random masses and u = w = c: every
    # E(uw) is c^2 up to roundoff, so each order attains one value, which
    # grows like c^(2m+2); deduplicating to an absolute 1e-9 kept its
    # roundoff copies apart at c = 1e5
    rng = np.random.default_rng(0)
    n = 150
    space = make_space(rng.uniform(0.2, 2.0, n))
    ce = CondExp(space, Partition.from_labels(np.arange(n) // 3))
    u = w = Mfunc(np.full(n, c))
    rows = audit_agreement(ce, w, u, 4).rows
    assert [len(row.e_r) for row in rows] == [1, 1, 1, 1]
    assert len(essential_range(symbols(ce, w, u).alpha)) == 1
