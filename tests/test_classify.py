import numpy as np
import pytest

from wctops import (
    DefectOracle,
    LinOp,
    ValidationError,
    cond_exp_matrix,
    defect,
    make_partition,
    make_space,
    mult_op,
    op_norm,
    quasi_defect,
    singleton_blocks,
    wct_op,
)
from wctops.cli import classify_operator
from conftest import mf, random_instances

PROBES = (0.25, 0.5, 2.0)


def test_defect_of_identity_vanishes():
    for m in range(1, 5):
        assert op_norm(defect(LinOp(np.eye(4)), m)) < 1e-14


def test_defect_of_projection(uniform4):
    _, _, ce = uniform4
    e = cond_exp_matrix(ce)
    b1 = defect(e, 1)
    assert np.allclose(b1.entries, e.entries - np.eye(4), atol=1e-14)
    assert op_norm(b1) == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(b1.entries)
    assert np.allclose(evals, [-1.0, -1.0, 0.0, 0.0], atol=1e-12)


def test_defect_of_rank_one_diagonal():
    T = LinOp(np.diag([1.0, 0.0]))
    assert np.allclose(defect(T, 1).entries, np.diag([0.0, -1.0]), atol=1e-14)


def test_quasi_defect_of_projection(uniform4):
    _, _, ce = uniform4
    e = cond_exp_matrix(ce)
    for m in range(1, 5):
        assert op_norm(quasi_defect(e, m)) < 1e-13


def test_quasi_defect_of_partial_isometry_like_diagonal():
    T = LinOp(np.diag([1.0, 0.0]))
    assert op_norm(quasi_defect(T, 1)) < 1e-14
    assert op_norm(defect(T, 1)) == pytest.approx(1.0)


def test_quasi_defect_single_atom_value():
    T = LinOp(np.array([[2.0]]))
    q = quasi_defect(T, 1)
    assert q.entries[0, 0] == pytest.approx(12.0)  # 4 * (4 - 1)


def test_defect_rejects_bad_order():
    with pytest.raises(ValidationError):
        defect(LinOp(np.eye(2)), 0)
    with pytest.raises(ValidationError):
        quasi_defect(LinOp(np.eye(2)), 0)


def test_classify_isometry_unimodular_multiplication():
    space = make_space([0.2, 0.5, 0.8])
    u = mf(np.exp(1j * np.array([0.3, 1.2, -2.0])))
    T = mult_op(space, u)
    for v in DefectOracle(T, 4).verdicts():
        assert v.is_m_isometric and v.is_quasi_m_isometric
        assert v.defect_norm < 1e-12


def test_classify_isometry_projection(uniform4):
    _, _, ce = uniform4
    verdicts = DefectOracle(cond_exp_matrix(ce), 4).verdicts()
    for v in verdicts:
        assert v.is_quasi_m_isometric and not v.is_m_isometric
        assert v.defect_norm == pytest.approx(1.0, abs=1e-12)
        assert v.quasi_defect_norm < 1e-12


def test_classify_isometry_quasi_but_not_isometric(uniform4):
    _, _, ce = uniform4
    T = wct_op(ce, mf([1, 1, 1, 1]), mf([2, 0, 1, 1]))
    for v in DefectOracle(T, 4).verdicts():
        assert v.is_quasi_m_isometric and not v.is_m_isometric


def test_pascal_recursion():
    # B_m = T* B_{m-1} T - B_{m-1}
    for inst in random_instances(seed=31, count=15):
        t = wct_op(inst.cond_exp(), inst.w, inst.u).entries
        prev = defect(LinOp(t), 1).entries
        for m in range(2, 6):
            cur = defect(LinOp(t), m).entries
            recursed = t.conj().T @ prev @ t - prev
            assert np.abs(cur - recursed).max() < 1e-9
            prev = cur


def test_m_isometric_implies_quasi():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        space = make_space(rng.uniform(0.2, 1.0, n))
        u = mf(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        T = mult_op(space, u)
        for m in range(1, 4):
            tol = DefectOracle(T, m).verdicts()[m - 1].tol
            dn = op_norm(defect(T, m))
            qn = op_norm(quasi_defect(T, m))
            assert dn <= tol
            assert qn <= tol * max(1.0, op_norm(T) ** 2)


def test_quasi_2_persistence():
    # quasi order 2 vanishing propagates to all higher orders
    hits = 0
    for inst in random_instances(seed=77, count=40):
        T = wct_op(inst.cond_exp(), inst.w, inst.u)
        tols = [v.tol for v in DefectOracle(T, 6).verdicts()]
        if op_norm(quasi_defect(T, 2)) <= tols[1]:
            hits += 1
            for m in range(3, 7):
                assert op_norm(quasi_defect(T, m)) <= tols[m - 1]
    assert hits >= 5  # the stratified generator supplies quasi instances


def test_normal_case_defect_collapse():
    # for normal T the defect is (T*T - I)^m with norms matching exactly
    for inst in random_instances(seed=91, count=15):
        u = inst.u
        w = u.conj()
        ce = inst.cond_exp()
        T = wct_op(ce, w, u)
        base = T.entries.conj().T @ T.entries - np.eye(T.dim)
        for m in range(1, 5):
            bm = defect(T, m)
            direct = np.linalg.matrix_power(base, m)
            assert np.abs(bm.entries - direct).max() < 1e-9 * max(
                1.0, np.abs(direct).max()
            )
            ref = op_norm(LinOp(base)) ** m
            assert op_norm(bm) == pytest.approx(ref, rel=1e-6)


def test_normality_examples(uniform4):
    _, _, ce = uniform4
    n = DefectOracle(LinOp(np.eye(3)), 0).normality((0.5,), 1e-10)
    assert n["normal"] and n["hyponormal"] and n["p_hyponormal"][0]["holds"]
    # self-adjoint weighted conditional operator
    u = mf([1 + 1j, 0.5, 2.0, 1j])
    T = wct_op(ce, u.conj(), u)
    assert DefectOracle(T, 0).normality((), 1e-10)["normal"]
    shift = LinOp(np.array([[0.0, 0.0], [1.0, 0.0]]))
    n = DefectOracle(shift, 0).normality((), 1e-10)
    assert not n["hyponormal"]
    assert not n["normal"]


def test_hyponormality_hierarchy_on_wct_instances():
    for inst in random_instances(seed=101, count=30):
        T = wct_op(inst.cond_exp(), inst.w, inst.u)
        n = DefectOracle(T, 0).normality(PROBES, 1e-8)
        flags = {n["normal"], n["hyponormal"], *(p["holds"] for p in n["p_hyponormal"])}
        assert len(flags) == 1


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
    T = mult_op(make_space([0.5, 0.5]), mf([2.0, 1.0]))
    a2 = np.array([4.0, 1.0])
    iso = np.linalg.eigvalsh(defect(T, 2).entries) - np.sort((a2 - 1.0) ** 2)
    quasi = np.linalg.eigvalsh(quasi_defect(T, 2).entries) - np.sort(a2 * (a2 - 1.0) ** 2)
    assert np.abs(iso).max() < 1e-9
    assert np.abs(quasi).max() < 1e-9


def test_multiplication_corollary_growth_in_m():
    report = _mult_report([0.5, 0.5], [2.0, 1.0], 4)
    norms = [v["quasi_defect_norm"] for v in report.defect_verdicts]
    assert np.allclose(norms, [4 * 3**m for m in range(1, 5)], rtol=1e-12)
