from fractions import Fraction

import numpy as np
import pytest

import dense_reference
from wctops import (
    CondExp,
    DefectOracle,
    Mfunc,
    ValidationError,
    grid_space,
    make_partition,
    make_space,
    singleton_blocks,
    wct_action,
)
from wctops.classify import NORMAL_EPS
from wctops.cli import classify_operator, cmd_example_a
from conftest import (
    audit,
    core_defects,
    core_matrices,
    defect_evals,
    dense,
    mf,
    random_instances,
    wct_oracle,
)

PROBES = (0.25, 0.5, 2.0)


def _oracle(weights, blocks, u, w):
    """The oracle of ``f -> w E(u f)`` on the given atoms and blocks."""
    space = make_space(weights)
    return wct_oracle(CondExp(space, make_partition(space, blocks)), mf(w), mf(u))


def _mult_oracle(u, weights=None):
    """The oracle of the multiplication operator ``M_u``: singleton blocks
    and ``w = 1``."""
    n = len(u)
    weights = np.full(n, 1.0 / n) if weights is None else weights
    return _oracle(weights, singleton_blocks(n), u, np.ones(n))


def _inst_oracle(inst, w=None):
    return wct_oracle(inst.cond_exp(), inst.w if w is None else w, inst.u)


def _rows(weights, blocks, u, w, m_max):
    """The criteria rows of ``f -> w E(u f)``, with the oracle's defect norms
    and verdicts."""
    space = make_space(weights)
    ce = CondExp(space, make_partition(space, blocks))
    return audit(ce, mf(w), mf(u), m_max)


def _mult_rows(u, m_max, weights):
    """``_rows`` of the multiplication operator ``M_u``."""
    n = len(u)
    return _rows(weights, singleton_blocks(n), u, np.ones(n), m_max)


def test_defect_of_identity_vanishes():
    dn, _ = _mult_oracle(np.ones(4)).defect_norms(4)
    assert (dn < 1e-14).all()


def test_defect_of_projection():
    # B_1 = E - I on the averaging projection E of two 2-atom blocks
    oracle = _oracle([0.25] * 4, [[0, 1], [2, 3]], np.ones(4), np.ones(4))
    assert oracle.defect_norms(1)[0][0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(defect_evals(oracle, 1), [-1.0, -1.0, 0.0, 0.0], atol=1e-12)


def test_defect_of_rank_one_diagonal():
    oracle = _mult_oracle([1.0, 0.0])
    assert np.allclose(defect_evals(oracle, 1), [-1.0, 0.0], atol=1e-14)


def test_quasi_defect_of_projection():
    oracle = _oracle([0.25] * 4, [[0, 1], [2, 3]], np.ones(4), np.ones(4))
    assert (oracle.defect_norms(4)[1] < 1e-13).all()


def test_quasi_defect_of_partial_isometry_like_diagonal():
    dn, qn = _mult_oracle([1.0, 0.0]).defect_norms(1)
    assert qn[0] < 1e-14
    assert dn[0] == pytest.approx(1.0)


def test_quasi_defect_single_atom_value():
    oracle = _mult_oracle([2.0])
    assert defect_evals(oracle, 1, quasi=True)[0] == pytest.approx(12.0)  # 4 * (4 - 1)


def test_defect_rejects_bad_order():
    oracle = _mult_oracle(np.ones(2))
    for m_max in (0, -1):
        with pytest.raises(ValidationError, match=f"m_max must be >= 1, got {m_max}"):
            oracle.defect_norms(m_max)


def test_classify_isometry_unimodular_multiplication():
    u = np.exp(1j * np.array([0.3, 1.2, -2.0]))
    for row in _mult_rows(u, 4, [0.2, 0.5, 0.8]):
        assert row.oracle_m_iso and row.oracle_quasi
        assert row.oracle_defect_norm < 1e-12


def test_classify_isometry_projection(uniform4):
    ce = uniform4[2]
    ones = mf(np.ones(4))
    for row in audit(ce, ones, ones, 4):
        assert row.oracle_quasi and not row.oracle_m_iso
        assert row.oracle_defect_norm == pytest.approx(1.0, abs=1e-12)
        assert row.oracle_quasi_norm < 1e-12


def test_classify_isometry_quasi_but_not_isometric(uniform4):
    ce = uniform4[2]
    for row in audit(ce, mf([1, 1, 1, 1]), mf([2, 0, 1, 1]), 4):
        assert row.oracle_quasi and not row.oracle_m_iso


def test_pascal_recursion():
    # B_m = T* B_{m-1} T - B_{m-1}, on the oracle's cores, and the oracle's
    # closed-form defect norms are the norms of those B_m
    for inst in random_instances(seed=31, count=15):
        oracle = _inst_oracle(inst)
        t = core_matrices(oracle)
        t_adj = t.conj().swapaxes(-1, -2)
        defects = [core_defects(oracle, m) for m in range(1, 6)]
        for prev, cur in zip(defects, defects[1:]):
            recursed = t_adj @ prev @ t - prev
            assert np.abs(cur - recursed).max() < 1e-9
        norms = [np.abs(np.linalg.eigvalsh(b)).max() for b in defects]
        assert np.allclose(oracle.defect_norms(5)[0], norms, rtol=1e-12, atol=1e-12)


def test_m_isometric_implies_quasi():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        weights = rng.uniform(0.2, 1.0, n)
        u = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        norm = _mult_oracle(u, weights).norm
        for row in _mult_rows(u, 3, weights):
            assert row.oracle_defect_norm <= row.tol
            assert row.oracle_quasi_norm <= row.tol * max(1.0, norm**2)


def test_quasi_2_persistence():
    # quasi order 2 vanishing propagates to all higher orders
    hits = 0
    for inst in random_instances(seed=77, count=40):
        rows = audit(inst.cond_exp(), inst.w, inst.u, 6)
        if rows[1].oracle_quasi_norm <= rows[1].tol:
            hits += 1
            for row in rows[2:]:
                assert row.oracle_quasi_norm <= row.tol
    assert hits >= 5  # the stratified generator supplies quasi instances


def test_normal_case_defect_collapse():
    # for normal T the defect is (T*T - I)^m, on the oracle's cores, with
    # norms matching the dense reference's
    for inst in random_instances(seed=91, count=15):
        w = Mfunc(inst.u.values.conj())
        oracle = _inst_oracle(inst, w)
        t = core_matrices(oracle)
        base = t.conj().swapaxes(-1, -2) @ t - np.eye(t.shape[-1])
        dense_t = dense(inst.cond_exp(), w, inst.u)
        dense_base = dense_reference.norm(dense_t.conj().T @ dense_t - np.eye(len(dense_t)))
        for m in range(1, 5):
            bm = core_defects(oracle, m)
            direct = np.linalg.matrix_power(base, m)
            assert np.abs(bm - direct).max() < 1e-9 * max(1.0, np.abs(direct).max())
            assert oracle.defect_norms(4)[0][m - 1] == pytest.approx(dense_base**m, rel=1e-6)


def test_normality_examples(uniform4):
    n = _mult_oracle(np.ones(3)).normality()
    assert n == {"normal": True, "residual": 0.0, "tol": NORMAL_EPS}
    # self-adjoint weighted conditional operator
    _, partition, ce = uniform4
    u = np.array([1 + 1j, 0.5, 2.0, 1j])
    T = wct_action(ce, mf(u.conj()), mf(u))
    assert DefectOracle(T, partition).normality()["normal"]
    # half the shift e_1 -> e_2 on one block of two equal atoms
    n = _oracle([0.5, 0.5], [[0, 1]], [1.0, 0.0], [0.0, 1.0]).normality()
    assert not n["normal"]
    assert n["residual"] == pytest.approx(1.0, rel=0, abs=1e-12)


def test_hyponormality_hierarchy_on_wct_instances():
    # on a finite space p-hyponormal, hyponormal and normal coincide: on a
    # rank-one block (T*T)^p - (TT*)^p = g^(p-1) (T*T - TT*), g = |T_b|^2, so
    # the dense reference's negative part of that difference on each block,
    # over g^p, is the block's angle sine for every p, and its largest is
    # the oracle's one residual
    for inst in random_instances(seed=101, count=30):
        residual = _inst_oracle(inst).normality()["residual"]
        t = dense(inst.cond_exp(), inst.w, inst.u)
        blocks = [t[np.ix_(blk, blk)] for blk in inst.partition.blocks]
        refs = [dense_reference.oracle(tb, 0, PROBES) for tb in blocks]
        for i, p in enumerate(PROBES):
            shares = [
                ref["p_residuals"][i] / ref["norm"] ** (2 * p) if ref["norm"] > 0 else 0.0
                for ref in refs
            ]
            assert max(shares) == pytest.approx(residual, rel=0, abs=1e-12), (inst.label, p)


def _nilpotent_oracle(s, c):
    """N(s, c): a singleton of value c^2 beside a two-atom block on which
    ``T`` is nilpotent with ``|T_1|^2 = c^4 s^4 / 4``."""
    u, w = c * np.array([1.0, s, 0.0]), c * np.array([1.0, 0.0, s])
    return _oracle([0.5, 0.25, 0.25], [[0], [1, 2]], u, w)


@pytest.mark.parametrize(
    "s,c",
    [
        (1e-2, 1.0),
        (1e-3, 1.0),
        (1e-2, 1e-3),
        (1e-4, 1e3),
        pytest.param(1e-3, 2.0**-150, id="0.001-2^-150"),
    ],
)
def test_normality_residual_of_a_small_nilpotent_block_is_one(s, c):
    # a nilpotent block a c* has a orthogonal to c, an angle whose sine is 1
    # however small |T_1| is against 1 or |T|: the block is not normal, nor
    # hyponormal, nor p-hyponormal for any p.  At c = 2^-150, T is scaled by
    # 2^-300 and |y|^2 |r|^2 of the block's core underflows
    n = _nilpotent_oracle(s, c).normality()
    assert not n["normal"]
    assert n["residual"] == pytest.approx(1.0, rel=0, abs=1e-12)


def test_quasi_defects_of_a_nilpotent_block_are_its_gram():
    # N(1e-3, 1): T^2 = 0 on the nilpotent block, so T* B_m T = (-1)^m T* T
    # there, of norm |T_1|^2 = 2.5e-13, and B_m = 0 on the singleton of
    # value 1
    u, w = np.array([1.0, 1e-3, 0.0]), np.array([1.0, 0.0, 1e-3])
    rows = _rows([0.5, 0.25, 0.25], [[0], [1, 2]], u, w, 6)
    assert len(rows) == 6
    for row in rows:
        assert row.oracle_quasi_norm == pytest.approx(2.5e-13, rel=1e-12, abs=0), row.m


def _mult_report(weights, u, m_max):
    """The report of ``M_u``: the WCT operator of singleton blocks and w = 1."""
    space = make_space(weights)
    partition = make_partition(space, singleton_blocks(len(weights)))
    return classify_operator(space, partition, mf(u), mf(np.ones(len(weights))), m_max)


def test_multiplication_corollary_unimodular():
    report = _mult_report([0.2, 0.5, 0.8], [1.0, 1.0j, -1.0], 3)
    row = report.criteria_rows[2]
    assert row["oracle_m_iso"] and row["oracle_quasi"]
    # the literal m-isometry residual of M_u is max ||u|^2 - 1|^m
    assert report.criteria_rows[2]["m_iso_paper_residual"] < 1e-14


def test_multiplication_corollary_zero_one_modulus():
    report = _mult_report([0.5, 0.5], [1.0, 0.0], 3)
    for row in report.criteria_rows:
        assert row["oracle_quasi"] and not row["oracle_m_iso"]
        assert row["oracle_defect_norm"] == pytest.approx(1.0)
    assert not report.mismatches


def test_multiplication_corollary_generic():
    report = _mult_report([0.5, 0.5], [2.0, 1.0], 2)
    row = report.criteria_rows[1]
    assert not row["oracle_m_iso"] and not row["oracle_quasi"]
    # residual at the first atom: |u|^2 (|u|^2 - 1)^m = 4 * 9
    assert row["quasi_residual"] == pytest.approx(36.0)
    assert row["oracle_quasi_norm"] == pytest.approx(36.0, rel=1e-12)
    # the defect spectra are the pointwise closed forms
    oracle = _mult_oracle([2.0, 1.0])
    a2 = np.array([4.0, 1.0])
    iso = defect_evals(oracle, 2) - np.sort((a2 - 1.0) ** 2)
    quasi = defect_evals(oracle, 2, quasi=True) - np.sort(a2 * (a2 - 1.0) ** 2)
    assert np.abs(iso).max() < 1e-9
    assert np.abs(quasi).max() < 1e-9


def test_multiplication_corollary_growth_in_m():
    report = _mult_report([0.5, 0.5], [2.0, 1.0], 4)
    norms = [row["oracle_quasi_norm"] for row in report.criteria_rows]
    assert np.allclose(norms, [4 * 3**m for m in range(1, 5)], rtol=1e-12)


# t = 0, 1/2 (where c_m changes form), 1 -/+ 1e-9, 2 and values between
REFEREE_T = (0.0, 0.25, 0.5, 0.75, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5, 2.0, 3.0)


def _exact_t_g(lam, kappa):
    """``t = |lam|^2`` and ``g = |(lam, kappa)|^2`` of a core's values ``lam``
    and ``|kappa|``, as Fractions."""
    t = Fraction(lam.real) ** 2 + Fraction(lam.imag) ** 2
    return t, t + Fraction(kappa) ** 2


@pytest.mark.parametrize("size", [1, 2], ids=["1x1", "2x2"])
@pytest.mark.parametrize("t", REFEREE_T)
def test_defect_norms_match_exact_sums_up_to_order_60(t, size):
    # one block whose core has |lam|^2 = t: a singleton of value sqrt(t) (a
    # 1x1 core), or two atoms with E(uw) = sqrt(t) and kappa = 0.7 (a 2x2
    # core; at t = 0 the nilpotent u = (1, 0), w = (0, 1)).  On the oracle's
    # own cores, the exact norms are |J_m(t)| (1x1) or max(1, |(-1)^m +
    # J'_m(t) g|) (2x2) and |J_m(t)| g, with the sums taken in Fractions
    s = np.sqrt(t)
    if size == 1:
        oracle = _oracle([1.0], [[0]], [1.0], [s])
    else:
        u, w = ([1.0, 0.0], [0.0, 1.0]) if t == 0 else ([1.0, 1.0], [s + 0.7, s - 0.7])
        oracle = _oracle([1.0, 1.0], [[0, 1]], u, w)
    assert oracle._kappa.shape == (1,) and core_matrices(oracle).shape == (1, size, size)
    t_b, g_b = _exact_t_g(oracle.spectrum[0], oracle._kappa[0])
    dn, qn = oracle.defect_norms(60)
    for m, (j, j_prime) in enumerate(zip(*dense_reference.exact_sums(t_b, 60)), start=1):
        defect = abs(j) if size == 1 else max(1, abs((-1) ** m + j_prime * g_b))
        for got, want in ((dn[m - 1], defect), (qn[m - 1], abs(j) * g_b)):
            bound = Fraction(1e-13) * max(1, want)
            assert abs(Fraction(float(got)) - want) <= bound, (m, float(got), float(want))


def test_example_a_quasi_norms_at_high_orders_match_exact_sums():
    # example-a on 2 x 2 atoms: |E(uw)| is near 1.40 and 1.38, and at
    # m = 29..45 the alternating sums' roundoff exceeded the exact quasi
    # norms max_b |t_b - 1|^m g_b, here taken in Fractions on the cores
    grid = grid_space(2, 2)
    x, y = grid.xs[:, None], grid.ys
    u = Mfunc(np.exp(x / 8.0 * np.log(y)))
    w = Mfunc(np.sqrt(4.0 + x) * np.sqrt(y))
    oracle = wct_oracle(CondExp(grid.space, grid.partition), w, u)
    exact = [_exact_t_g(*values) for values in zip(oracle.spectrum, oracle._kappa)]
    sums = [dense_reference.exact_sums(t_b, 45)[0] for t_b, _ in exact]
    quasi_norms = oracle.defect_norms(45)[1]
    reported = cmd_example_a(2, 2, m_max=45).classification.criteria_rows
    for m, printed in ((29, 0.487381), (37, 0.328322), (45, 0.221172)):
        want = max(abs(j[m - 1]) * g_b for j, (_, g_b) in zip(sums, exact))
        got = quasi_norms[m - 1]
        assert abs(Fraction(float(got)) - want) <= Fraction(1e-12) * want, m
        assert reported[m - 1]["oracle_quasi_norm"] == got
        assert round(got, 6) == printed


def _example_a_2x2_rows():
    """The criteria rows of example-a on 2 x 2 atoms at orders 1..45: two
    blocks of two atoms, with |E(uw)| near 1.378 and 1.397."""
    report = cmd_example_a(2, 2, m_max=45).classification
    assert (report.atom_count, report.block_count) == (4, 2)
    return report.criteria_rows


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: |B_m| = 1 passes the threshold 1e-9 |T|^(2m) from m = 30",
)
def test_example_a_2x2_is_m_isometric_at_no_order():
    # an m-isometry is injective (Agler-Stankus), and a block of two atoms
    # has a kernel: this T is m-isometric at no m, and every B_m has norm at
    # least 1; the oracle reads "yes" at m = 30..45
    rows = _example_a_2x2_rows()
    assert all(row["oracle_defect_norm"] >= 1.0 for row in rows)
    assert [row["m"] for row in rows if row["oracle_m_iso"]] == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3 (FOUND 73): the residual |t - 1|^m E|u|^2 E|w|^2 falls "
    "below the threshold 1e-9 |T|^(2m) from m = 29",
)
def test_example_a_2x2_is_quasi_m_isometric_at_no_order():
    # T is quasi-m-isometric iff |E(uw)| = 1 on the joint support, at every
    # m; here |E(uw)| is 1.378 and 1.397, so no order holds, yet the
    # corrected and the oracle quasi verdicts read "yes" at m = 29..45
    rows = _example_a_2x2_rows()
    assert [row["m"] for row in rows if row["corrected_quasi"] or row["oracle_quasi"]] == []
