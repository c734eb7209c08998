import numpy as np
import pytest

from wctops import (
    CondExp,
    LinOp,
    Mfunc,
    ValidationError,
    adjoint,
    cond_exp,
    cond_exp_matrix,
    hermitian_eig,
    hermitian_power,
    identity,
    is_psd,
    make_partition,
    make_space,
    mult_op,
    op_norm,
    power,
    spectrum,
    wct_op,
)
from conftest import mf, random_instances


def test_mult_op_ones_is_identity():
    space = make_space([0.5, 0.5])
    assert np.allclose(mult_op(space, mf([1, 1])).entries, np.eye(2))


def test_mult_op_diagonal_values():
    space = make_space([0.5, 0.5])
    T = mult_op(space, mf([2.0, 3.0j]))
    assert np.allclose(T.entries, np.diag([2.0, 3.0j]))
    assert op_norm(T) == pytest.approx(3.0)


def test_mult_op_norm_is_max_modulus():
    rng = np.random.default_rng(3)
    space = make_space(rng.uniform(0.1, 1.0, 6))
    g = mf(rng.normal(size=6) + 1j * rng.normal(size=6))
    assert op_norm(mult_op(space, g)) == pytest.approx(
        np.abs(g.values).max(), rel=1e-12
    )


def test_mult_op_rejects_mismatch():
    space = make_space([0.5, 0.5])
    with pytest.raises(ValidationError):
        mult_op(space, mf([1, 2, 3]))


def test_wct_op_with_trivial_weights_is_projection(uniform4):
    _, _, ce = uniform4
    ones = mf([1, 1, 1, 1])
    T = wct_op(ce, ones, ones)
    assert np.allclose(T.entries, cond_exp_matrix(ce).entries, atol=1e-14)


def test_wct_op_singleton_partition_reduces_to_multiplication():
    space = make_space([0.2, 0.3, 0.5])
    ce = CondExp(space, make_partition(space, [[0], [1], [2]]))
    w = mf([1.0, 2.0, 3.0])
    u = mf([1.0j, 1.0, 0.5])
    T = wct_op(ce, w, u)
    assert np.allclose(T.entries, np.diag(w.values * u.values), atol=1e-14)


def test_wct_op_is_triple_matrix_product():
    rng = np.random.default_rng(9)
    space = make_space(rng.uniform(0.1, 1.5, 5))
    ce = CondExp(space, make_partition(space, [[0, 3], [1, 2, 4]]))
    w = mf(rng.normal(size=5) + 1j * rng.normal(size=5))
    u = mf(rng.normal(size=5) + 1j * rng.normal(size=5))
    explicit = mult_op(space, w) @ cond_exp_matrix(ce) @ mult_op(space, u)
    assert np.abs(wct_op(ce, w, u).entries - explicit.entries).max() < 1e-14


def test_wct_op_application_by_hand(uniform4):
    space, _, ce = uniform4
    w = mf([1, 1, 1, 1])
    u = mf([2, 0, 1, 1])
    T = wct_op(ce, w, u)
    # act on the constant function 1: coordinates are f(x) sqrt(mu(x))
    coords = np.ones(4) * np.sqrt(space.weights)
    out = T.entries @ coords
    expected = cond_exp(ce, u).values * np.sqrt(space.weights)
    assert np.allclose(out, expected, atol=1e-14)
    assert np.allclose(out, coords, atol=1e-14)  # E(u) is 1 on both blocks


def test_adjoint_identities(uniform4):
    _, _, ce = uniform4
    rng = np.random.default_rng(11)
    assert np.array_equal(adjoint(identity(3)).entries, np.eye(3))
    assert np.allclose(
        adjoint(LinOp(np.diag([2.0, 3.0j]))).entries, np.diag([2.0, -3.0j])
    )
    for _ in range(10):
        w = mf(rng.normal(size=4) + 1j * rng.normal(size=4))
        u = mf(rng.normal(size=4) + 1j * rng.normal(size=4))
        T = wct_op(ce, w, u)
        assert np.array_equal(adjoint(adjoint(T)).entries, T.entries)
        assert np.abs(
            adjoint(T).entries - wct_op(ce, u.conj(), w.conj()).entries
        ).max() < 1e-12


def test_power_and_compose():
    A = LinOp(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(power(A, 0).entries, np.eye(2))
    assert np.array_equal(power(A, 1).entries, A.entries)
    assert np.allclose(power(A, 3).entries, (A @ A @ A).entries)
    assert np.allclose((A @ A).entries, power(A, 2).entries)
    with pytest.raises(ValidationError):
        power(A, -1)


def test_projection_powers_are_idempotent(uniform4):
    _, _, ce = uniform4
    e = cond_exp_matrix(ce)
    for k in range(1, 5):
        assert np.allclose(power(e, k).entries, e.entries, atol=1e-13)


def test_wct_power_factorization():
    for inst in random_instances(seed=21, count=20):
        ce = inst.cond_exp()
        T = wct_op(ce, inst.w, inst.u)
        e_uw = cond_exp(ce, inst.u * inst.w)
        for k in range(1, 6):
            factor = mult_op(inst.space, Mfunc(e_uw.values ** (k - 1)))
            assert (
                np.abs(power(T, k).entries - (factor @ T).entries).max() < 1e-9
            )


def test_wct_gram_identity():
    # T* T equals the operator built from the symbols E(|w|^2) conj(u), u
    for inst in random_instances(seed=22, count=20):
        ce = inst.cond_exp()
        T = wct_op(ce, inst.w, inst.u)
        e_w2 = cond_exp(ce, inst.w.abs_sq())
        lhs = (adjoint(T) @ T).entries
        rhs = wct_op(ce, Mfunc(e_w2.values) * inst.u.conj(), inst.u).entries
        assert np.abs(lhs - rhs).max() < 1e-9


def test_op_norm_examples(uniform4):
    _, _, ce = uniform4
    assert op_norm(identity(5)) == pytest.approx(1.0)
    assert op_norm(cond_exp_matrix(ce)) == pytest.approx(1.0, abs=1e-12)
    space = make_space([0.3, 0.7, 1.1])
    ce3 = CondExp(space, make_partition(space, [[0, 2], [1]]))
    assert op_norm(cond_exp_matrix(ce3)) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_matches_svd_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = rng.integers(2, 9)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ours = op_norm(LinOp(a))
        ref = np.linalg.svd(a, compute_uv=False)[0]
        assert ours == pytest.approx(ref, rel=1e-10)


def test_op_norm_submultiplicative():
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = LinOp(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        b = LinOp(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) * (1 + 1e-10)


def test_spectrum_of_projection(uniform4):
    _, _, ce = uniform4
    ev = spectrum(cond_exp_matrix(ce))
    assert np.allclose(sorted(ev.real), [0, 0, 1, 1], atol=1e-12)
    assert np.abs(ev.imag).max() < 1e-12


def test_spectrum_wct_matches_conditional_values(uniform4):
    _, _, ce = uniform4
    T = wct_op(ce, mf([1, 1, 1, 1]), mf([2, 0, 1, 1]))
    ev = spectrum(T)
    nonzero = ev[np.abs(ev) > 1e-8]
    assert np.allclose(sorted(nonzero.real), [1.0, 1.0], atol=1e-10)


def test_spectrum_diagonal():
    space = make_space([0.5, 0.5])
    ce = CondExp(space, make_partition(space, [[0], [1]]))
    T = wct_op(ce, mf([1, 1]), mf([1, 1j]))
    ev = spectrum(T)
    assert np.allclose(sorted(ev, key=lambda z: (z.real, z.imag)), [1j, 1.0])


def test_hermitian_eig_examples():
    evals, _ = hermitian_eig(LinOp(np.diag([3.0, 1.0])))
    assert np.allclose(evals, [1.0, 3.0])
    evals, _ = hermitian_eig(LinOp(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(evals, [-1.0, 1.0])
    space = make_space([1.0, 3.0])
    ce = CondExp(space, make_partition(space, [[0, 1]]))
    evals, vecs = hermitian_eig(cond_exp_matrix(ce))
    assert np.allclose(evals, [0.0, 1.0], atol=1e-14)
    v = vecs.entries
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eig(LinOp(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_hermitian_power_examples():
    a = LinOp(np.diag([4.0, 9.0]))
    assert np.allclose(hermitian_power(a, 0.5).entries, np.diag([2.0, 3.0]))
    assert np.allclose(hermitian_power(a, 1.0).entries, a.entries, atol=1e-9)
    space = make_space([0.25] * 4)
    ce = CondExp(space, make_partition(space, [[0, 1], [2, 3]]))
    e = cond_exp_matrix(ce)
    for p in (0.25, 0.5, 2.0):
        assert np.allclose(hermitian_power(e, p).entries, e.entries, atol=1e-12)


def test_hermitian_power_rejects_negative_matrix():
    with pytest.raises(ValidationError):
        hermitian_power(LinOp(np.diag([1.0, -1.0])), 0.5)
    with pytest.raises(ValidationError):
        hermitian_power(LinOp(np.eye(2)), 0.0)


def test_is_psd():
    assert is_psd(identity(3), 1e-12)
    assert not is_psd(LinOp(np.diag([1.0, -1.0])), 1e-12)
    space = make_space([0.25] * 4)
    ce = CondExp(space, make_partition(space, [[0, 1], [2, 3]]))
    e = cond_exp_matrix(ce)
    assert is_psd(e - (e @ e), 1e-12)


def test_linop_validation():
    with pytest.raises(ValidationError):
        LinOp(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        LinOp(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        identity(2) + identity(3)
