import numpy as np
import pytest

import dense_reference
from wctops import (
    CondExp,
    DefectOracle,
    Mfunc,
    ValidationError,
    make_partition,
    make_space,
    singleton_blocks,
    wct_action,
)
from wctops.classify import _defects
from wctops.cli import classify_operator, suite_instances
from conftest import defect_evals, dense, mf, random_instances, wct_oracle

PROBES = (0.25, 0.5, 2.0)


def _oracle(weights, blocks, u, w, m_max):
    """The oracle of ``f -> w E(u f)`` on the given atoms and blocks."""
    space = make_space(weights)
    return wct_oracle(CondExp(space, make_partition(space, blocks)), mf(w), mf(u), m_max)


def _mult_oracle(u, m_max, weights=None):
    """The oracle of the multiplication operator ``M_u``: singleton blocks
    and ``w = 1``."""
    n = len(u)
    weights = np.full(n, 1.0 / n) if weights is None else weights
    return _oracle(weights, singleton_blocks(n), u, np.ones(n), m_max)


def _inst_oracle(inst, m_max, w=None):
    return wct_oracle(inst.cond_exp(), inst.w if w is None else w, inst.u, m_max)


def test_defect_of_identity_vanishes():
    dn, _ = _mult_oracle(np.ones(4), 4).defect_norms
    assert (dn < 1e-14).all()


def test_defect_of_projection():
    # B_1 = E - I on the averaging projection E of two 2-atom blocks
    oracle = _oracle([0.25] * 4, [[0, 1], [2, 3]], np.ones(4), np.ones(4), 1)
    assert oracle.defect_norms[0][0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(defect_evals(oracle, 1), [-1.0, -1.0, 0.0, 0.0], atol=1e-12)


def test_defect_of_rank_one_diagonal():
    oracle = _mult_oracle([1.0, 0.0], 1)
    assert np.allclose(defect_evals(oracle, 1), [-1.0, 0.0], atol=1e-14)


def test_quasi_defect_of_projection():
    oracle = _oracle([0.25] * 4, [[0, 1], [2, 3]], np.ones(4), np.ones(4), 4)
    assert (oracle.defect_norms[1] < 1e-13).all()


def test_quasi_defect_of_partial_isometry_like_diagonal():
    dn, qn = _mult_oracle([1.0, 0.0], 1).defect_norms
    assert qn[0] < 1e-14
    assert dn[0] == pytest.approx(1.0)


def test_quasi_defect_single_atom_value():
    oracle = _mult_oracle([2.0], 1)
    assert defect_evals(oracle, 1, quasi=True)[0] == pytest.approx(12.0)  # 4 * (4 - 1)


def test_defect_rejects_bad_order():
    with pytest.raises(ValidationError):
        _mult_oracle(np.ones(2), -1)


def test_classify_isometry_unimodular_multiplication():
    u = np.exp(1j * np.array([0.3, 1.2, -2.0]))
    for v in _mult_oracle(u, 4, [0.2, 0.5, 0.8]).verdicts():
        assert v.is_m_isometric and v.is_quasi_m_isometric
        assert v.defect_norm < 1e-12


def test_classify_isometry_projection(uniform4):
    _, partition, ce = uniform4
    ones = mf(np.ones(4))
    verdicts = DefectOracle(wct_action(ce, ones, ones), 4, partition).verdicts()
    for v in verdicts:
        assert v.is_quasi_m_isometric and not v.is_m_isometric
        assert v.defect_norm == pytest.approx(1.0, abs=1e-12)
        assert v.quasi_defect_norm < 1e-12


def test_classify_isometry_quasi_but_not_isometric(uniform4):
    _, partition, ce = uniform4
    T = wct_action(ce, mf([1, 1, 1, 1]), mf([2, 0, 1, 1]))
    for v in DefectOracle(T, 4, partition).verdicts():
        assert v.is_quasi_m_isometric and not v.is_m_isometric


def test_pascal_recursion():
    # B_m = T* B_{m-1} T - B_{m-1}, on the oracle's cores
    for inst in random_instances(seed=31, count=15):
        oracle = _inst_oracle(inst, 5)
        t, t_adj = oracle._t, oracle._t.conj().swapaxes(-1, -2)
        defects = _defects(oracle._grams, oracle._scales, range(1, 6))
        for prev, cur in zip(defects, defects[1:]):
            recursed = t_adj @ prev @ t - prev
            assert np.abs(cur - recursed).max() < 1e-9


def test_m_isometric_implies_quasi():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        weights = rng.uniform(0.2, 1.0, n)
        u = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        oracle = _mult_oracle(u, 3, weights)
        dn, qn = oracle.defect_norms
        for v in oracle.verdicts():
            assert dn[v.m - 1] <= v.tol
            assert qn[v.m - 1] <= v.tol * max(1.0, oracle.norm**2)


def test_quasi_2_persistence():
    # quasi order 2 vanishing propagates to all higher orders
    hits = 0
    for inst in random_instances(seed=77, count=40):
        oracle = _inst_oracle(inst, 6)
        tols = [v.tol for v in oracle.verdicts()]
        _, qn = oracle.defect_norms
        if qn[1] <= tols[1]:
            hits += 1
            for m in range(3, 7):
                assert qn[m - 1] <= tols[m - 1]
    assert hits >= 5  # the stratified generator supplies quasi instances


def test_normal_case_defect_collapse():
    # for normal T the defect is (T*T - I)^m, on the oracle's cores, with
    # norms matching the dense reference's
    for inst in random_instances(seed=91, count=15):
        w = Mfunc(inst.u.values.conj())
        oracle = _inst_oracle(inst, 4, w)
        t = oracle._t
        base = t.conj().swapaxes(-1, -2) @ t - np.eye(t.shape[-1])
        dense_t = dense(inst.cond_exp(), w, inst.u)
        dense_base = dense_reference.norm(dense_t.conj().T @ dense_t - np.eye(len(dense_t)))
        defects = _defects(oracle._grams, oracle._scales, range(1, 5))
        for m, bm in enumerate(defects, start=1):
            direct = np.linalg.matrix_power(base, m)
            assert np.abs(bm - direct).max() < 1e-9 * max(1.0, np.abs(direct).max())
            assert oracle.defect_norms[0][m - 1] == pytest.approx(dense_base**m, rel=1e-6)


def test_normality_examples(uniform4):
    n = _mult_oracle(np.ones(3), 0).normality((0.5,), 1e-10)
    assert n["normal"] and n["hyponormal"] and n["p_hyponormal"][0]["holds"]
    # self-adjoint weighted conditional operator
    _, partition, ce = uniform4
    u = np.array([1 + 1j, 0.5, 2.0, 1j])
    T = wct_action(ce, mf(u.conj()), mf(u))
    assert DefectOracle(T, 0, partition).normality((), 1e-10)["normal"]
    # half the shift e_1 -> e_2 on one block of two equal atoms
    n = _oracle([0.5, 0.5], [[0, 1]], [1.0, 0.0], [0.0, 1.0], 0).normality((), 1e-10)
    assert not n["hyponormal"]
    assert not n["normal"]


def test_hyponormality_hierarchy_on_wct_instances():
    for inst in random_instances(seed=101, count=30):
        n = _inst_oracle(inst, 0).normality(PROBES, 1e-8)
        flags = {n["normal"], n["hyponormal"], *(p["holds"] for p in n["p_hyponormal"])}
        assert len(flags) == 1


def _nilpotent_oracle(s, c):
    """N(s, c): a singleton of value c^2 beside a two-atom block on which
    ``T`` is nilpotent with ``|T_1|^2 = c^4 s^4 / 4``."""
    u, w = c * np.array([1.0, s, 0.0]), c * np.array([1.0, 0.0, s])
    return _oracle([0.5, 0.25, 0.25], [[0], [1, 2]], u, w, 0)


@pytest.mark.parametrize("s,c", [(1e-2, 1.0), (1e-3, 1.0), (1e-2, 1e-3), (1e-4, 1e3)])
def test_p_residual_of_a_small_nilpotent_block_is_its_closed_form(s, c):
    # on a rank-one block (T*T)^p - (TT*)^p = |T_b|^(2p-2) (T*T - TT*), and
    # the commutator of a nilpotent block has lowest eigenvalue -|T_b|^2,
    # however small that is against 1 or |T|^2
    for probe in _nilpotent_oracle(s, c).normality(PROBES)["p_hyponormal"]:
        exact = (c**4 * s**4 / 4) ** probe["p"]
        assert probe["residual"] == pytest.approx(exact, rel=1e-12, abs=0)


def test_quasi_defects_of_a_nilpotent_block_are_its_gram():
    # N(1e-3, 1): T^2 = 0 on the nilpotent block, so T* B_m T = (-1)^m T* T
    # there, of norm |T_1|^2 = 2.5e-13, and B_m = 0 on the singleton of
    # value 1
    u, w = np.array([1.0, 1e-3, 0.0]), np.array([1.0, 0.0, 1e-3])
    verdicts = _oracle([0.5, 0.25, 0.25], [[0], [1, 2]], u, w, 6).verdicts()
    assert len(verdicts) == 6
    for v in verdicts:
        assert v.quasi_defect_norm == pytest.approx(2.5e-13, rel=1e-12, abs=0), v.m


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3])
def test_p_residuals_are_homogeneous_in_u(c):
    # scaling u by c scales T by c, and each p-residual by |c|^(2p)
    for inst in suite_instances(30, seed=7):
        ce = inst.cond_exp()
        base = wct_oracle(ce, inst.w, inst.u, 0)
        scaled = wct_oracle(ce, inst.w, Mfunc(c * inst.u.values), 0)
        pairs = zip(
            base.normality(PROBES)["p_hyponormal"], scaled.normality(PROBES)["p_hyponormal"]
        )
        for x, y in pairs:
            size = abs(c) ** (2 * x["p"])
            bound = 1e-12 * size * base.norm ** (2 * x["p"])
            assert abs(y["residual"] - size * x["residual"]) <= bound, inst.label


def _mult_report(weights, u, m_max):
    """The report of ``M_u``: the WCT operator of singleton blocks and w = 1."""
    space = make_space(weights)
    partition = make_partition(space, singleton_blocks(len(weights)))
    return classify_operator(space, partition, mf(u), mf(np.ones(len(weights))), m_max)


def test_multiplication_corollary_unimodular():
    report = _mult_report([0.2, 0.5, 0.8], [1.0, 1.0j, -1.0], 3)
    v = report.defect_verdicts[2]
    assert v["is_m_isometric"] and v["is_quasi_m_isometric"]
    # the literal m-isometry residual of M_u is max ||u|^2 - 1|^m
    assert report.criteria_rows[2]["m_iso_paper_residual"] < 1e-14


def test_multiplication_corollary_zero_one_modulus():
    report = _mult_report([0.5, 0.5], [1.0, 0.0], 3)
    for v in report.defect_verdicts:
        assert v["is_quasi_m_isometric"] and not v["is_m_isometric"]
        assert v["defect_norm"] == pytest.approx(1.0)
    assert not report.mismatches


def test_multiplication_corollary_generic():
    report = _mult_report([0.5, 0.5], [2.0, 1.0], 2)
    v = report.defect_verdicts[1]
    assert not v["is_m_isometric"] and not v["is_quasi_m_isometric"]
    # residual at the first atom: |u|^2 (|u|^2 - 1)^m = 4 * 9
    assert report.criteria_rows[1]["quasi_residual"] == pytest.approx(36.0)
    assert v["quasi_defect_norm"] == pytest.approx(36.0, rel=1e-12)
    # the defect spectra are the pointwise closed forms
    oracle = _mult_oracle([2.0, 1.0], 2)
    a2 = np.array([4.0, 1.0])
    iso = defect_evals(oracle, 2) - np.sort((a2 - 1.0) ** 2)
    quasi = defect_evals(oracle, 2, quasi=True) - np.sort(a2 * (a2 - 1.0) ** 2)
    assert np.abs(iso).max() < 1e-9
    assert np.abs(quasi).max() < 1e-9


def test_multiplication_corollary_growth_in_m():
    report = _mult_report([0.5, 0.5], [2.0, 1.0], 4)
    norms = [v["quasi_defect_norm"] for v in report.defect_verdicts]
    assert np.allclose(norms, [4 * 3**m for m in range(1, 5)], rtol=1e-12)
