import numpy as np
import pytest

from dense_reference import sorted_spectrum, wct_matrix
from wctops import (
    Action,
    CondExp,
    Mfunc,
    Partition,
    ValidationError,
    block_averages,
    make_partition,
    make_space,
    singleton_blocks,
    wct_action,
)
from wctops import linop
from wctops.linop import _rank_one_cores
from conftest import dense, mf, random_instances, wct_oracle
from wctops.cli import classify_operator, suite_instances


def _singletons(weights):
    space = make_space(weights)
    return CondExp(space, make_partition(space, singleton_blocks(len(weights))))


def _matrix(action, n):
    """The matrix of an action, column by column."""
    return action.apply(np.eye(n, dtype=complex))


def _oracle(ce, w, u):
    return wct_oracle(ce, w, u)


def test_mult_op_ones_is_identity():
    ce = _singletons([0.5, 0.5])
    ones = mf([1, 1])
    assert np.allclose(_matrix(wct_action(ce, ones, ones), 2), np.eye(2))


def test_mult_op_diagonal_values():
    ce = _singletons([0.5, 0.5])
    ones, g = mf([1, 1]), mf([2.0, 3.0j])
    assert np.allclose(_matrix(wct_action(ce, ones, g), 2), np.diag([2.0, 3.0j]))
    assert _oracle(ce, ones, g).norm == pytest.approx(3.0)


def test_mult_op_norm_is_max_modulus():
    rng = np.random.default_rng(3)
    ce = _singletons(rng.uniform(0.1, 1.0, 6))
    g = mf(rng.normal(size=6) + 1j * rng.normal(size=6))
    assert _oracle(ce, mf(np.ones(6)), g).norm == pytest.approx(
        np.abs(g.values).max(), rel=1e-12
    )


def test_mult_op_rejects_mismatch():
    ce = _singletons([0.5, 0.5])
    with pytest.raises(ValidationError):
        wct_action(ce, mf([1, 1]), mf([1, 2, 3]))


def test_wct_op_with_trivial_weights_is_projection(uniform4):
    _, _, ce = uniform4
    ones = mf([1, 1, 1, 1])
    projection = np.kron(np.eye(2), np.full((2, 2), 0.5))
    assert np.allclose(_matrix(wct_action(ce, ones, ones), 4), projection, atol=1e-14)


def test_wct_op_singleton_partition_reduces_to_multiplication():
    ce = _singletons([0.2, 0.3, 0.5])
    w = mf([1.0, 2.0, 3.0])
    u = mf([1.0j, 1.0, 0.5])
    T = _matrix(wct_action(ce, w, u), 3)
    assert np.allclose(T, np.diag(w.values * u.values), atol=1e-14)


def test_wct_op_is_triple_matrix_product():
    rng = np.random.default_rng(9)
    space = make_space(rng.uniform(0.1, 1.5, 5))
    ce = CondExp(space, make_partition(space, [[0, 3], [1, 2, 4]]))
    w = mf(rng.normal(size=5) + 1j * rng.normal(size=5))
    u = mf(rng.normal(size=5) + 1j * rng.normal(size=5))
    e = wct_matrix(space.weights, ce.partition.block_index, np.ones(5), np.ones(5))
    explicit = np.diag(w.values) @ e @ np.diag(u.values)
    assert np.abs(_matrix(wct_action(ce, w, u), 5) - explicit).max() < 1e-14


def test_wct_action_applies_the_wct_matrix_and_its_adjoint():
    for inst in random_instances(seed=9, count=20):
        ce = inst.cond_exp()
        T = dense(ce, inst.w, inst.u)
        action = wct_action(ce, inst.w, inst.u)
        rng = np.random.default_rng(len(T))
        x = rng.normal(size=(len(T), 3)) + 1j * rng.normal(size=(len(T), 3))
        scale = np.abs(T).max() * np.abs(x).max()
        assert np.abs(action.apply(x) - T @ x).max() <= 1e-14 * len(T) * scale
        assert np.abs(action.apply_adj(x) - T.conj().T @ x).max() <= 1e-14 * len(T) * scale


def test_wct_op_application_by_hand(uniform4):
    space, partition, ce = uniform4
    w = mf([1, 1, 1, 1])
    u = mf([2, 0, 1, 1])
    # act on the constant function 1: coordinates are f(x) sqrt(mu(x))
    coords = np.ones(4) * np.sqrt(space.weights)
    out = wct_action(ce, w, u).apply(coords[:, None])[:, 0]
    expected = block_averages(ce, u)[partition.block_index] * np.sqrt(space.weights)
    assert np.allclose(out, expected, atol=1e-14)
    assert np.allclose(out, coords, atol=1e-14)  # E(u) is 1 on both blocks


def test_adjoint_identities(uniform4):
    _, _, ce = uniform4
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for _ in range(10):
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        adjoint = wct_action(ce, mf(w), mf(u)).apply_adj(x)
        swapped = wct_action(ce, mf(u.conj()), mf(w.conj())).apply(x)
        assert np.abs(adjoint - swapped).max() < 1e-12


def test_projection_powers_are_idempotent(uniform4):
    _, _, ce = uniform4
    ones = mf(np.ones(4))
    e = _matrix(wct_action(ce, ones, ones), 4)
    for k in range(1, 5):
        assert np.allclose(np.linalg.matrix_power(e, k), e, atol=1e-13)


def test_wct_power_factorization():
    # T^k = M_(E(uw)^(k-1)) T, applied to probe vectors
    for inst in random_instances(seed=21, count=20):
        ce = inst.cond_exp()
        T = wct_action(ce, inst.w, inst.u)
        e_uw = block_averages(ce, inst.u.values * inst.w.values)[inst.partition.block_index]
        x = np.random.default_rng(len(e_uw)).normal(size=(len(e_uw), 2)) + 0j
        tx = power = T.apply(x)
        for k in range(1, 6):
            assert np.abs(power - e_uw[:, None] ** (k - 1) * tx).max() < 1e-9
            power = T.apply(power)


def test_wct_gram_identity():
    # T* T equals the operator built from the symbols E(|w|^2) conj(u), u
    for inst in random_instances(seed=22, count=20):
        ce = inst.cond_exp()
        T = wct_action(ce, inst.w, inst.u)
        e_w2 = block_averages(ce, np.abs(inst.w.values) ** 2)[inst.partition.block_index]
        x = np.eye(len(e_w2), dtype=complex)
        lhs = T.apply_adj(T.apply(x))
        rhs = wct_action(ce, Mfunc(e_w2 * inst.u.values.conj()), inst.u).apply(x)
        assert np.abs(lhs - rhs).max() < 1e-9


def _projection_norm(ce):
    ones = mf(np.ones(ce.space.atom_count))
    return _oracle(ce, ones, ones).norm


def test_op_norm_examples(uniform4):
    _, _, ce = uniform4
    assert _projection_norm(_singletons([0.2] * 5)) == pytest.approx(1.0)
    assert _projection_norm(ce) == pytest.approx(1.0, abs=1e-12)
    space = make_space([0.3, 0.7, 1.1])
    ce3 = CondExp(space, make_partition(space, [[0, 2], [1]]))
    assert _projection_norm(ce3) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_matches_svd_oracle():
    for inst in random_instances(seed=17, count=20):
        ce = inst.cond_exp()
        ref = np.linalg.svd(dense(ce, inst.w, inst.u), compute_uv=False)[0]
        assert _oracle(ce, inst.w, inst.u).norm == pytest.approx(ref, rel=1e-10)


def test_op_norm_submultiplicative():
    # the product of two operators on one partition is one too:
    # w1 E(u1 w2 E(u2 f)) = (w1 E(u1 w2)) E(u2 f)
    rng = np.random.default_rng(18)
    for inst in random_instances(seed=18, count=20):
        ce, idx = inst.cond_exp(), inst.partition.block_index
        n = len(idx)
        w2, u2 = (mf(rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(2))
        e12 = block_averages(ce, inst.u.values * w2.values)[idx]
        product = _oracle(ce, Mfunc(inst.w.values * e12), u2).norm
        bound = _oracle(ce, inst.w, inst.u).norm * _oracle(ce, w2, u2).norm
        assert product <= bound * (1 + 1e-10)


def test_spectrum_of_projection(uniform4):
    _, _, ce = uniform4
    ones = mf(np.ones(4))
    # one value per block, with the other 4 - 2 lanes' zeros
    ev = sorted_spectrum(_oracle(ce, ones, ones).spectrum, 4 - 2)
    assert np.allclose(sorted(ev.real), [0, 0, 1, 1], atol=1e-12)
    assert np.abs(ev.imag).max() < 1e-12


def test_spectrum_wct_matches_conditional_values(uniform4):
    _, _, ce = uniform4
    ev = _oracle(ce, mf([1, 1, 1, 1]), mf([2, 0, 1, 1])).spectrum
    nonzero = ev[np.abs(ev) > 1e-8]
    assert np.allclose(sorted(nonzero.real), [1.0, 1.0], atol=1e-10)


def test_spectrum_diagonal():
    ev = _oracle(_singletons([0.5, 0.5]), mf([1, 1]), mf([1, 1j])).spectrum
    assert np.allclose(sorted(ev, key=lambda z: (z.real, z.imag)), [1j, 1.0])


def test_classify_operator_makes_no_numpy_linalg_call(monkeypatch):
    # every oracle number is a closed form on the cores, so a report runs
    # with every numpy.linalg function made to raise
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    instances = suite_instances(30, seed=7)
    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    for inst in instances:
        report = classify_operator(inst.space, inst.partition, inst.u, inst.w)
        assert report.matrix_route and report.normality is not None


def _paired_action(n):
    """The action of ``w E(u f)`` on n atoms in blocks of two (and a last
    singleton when n is odd), with fixed random weights and symbols."""
    rng = np.random.default_rng(n)
    space = make_space(rng.uniform(0.2, 2.0, n))
    partition = Partition.from_labels(np.arange(n) // 2)
    u, w = (Mfunc(rng.standard_normal((n, 2)) @ [1, 1j]) for _ in range(2))
    return wct_action(CondExp(space, partition), w, u), partition


@pytest.mark.parametrize("n", [1, 2, 599, 600, 601, linop._PROBE_ROWS + 1])
def test_rank_one_cores_probes_are_a_fresh_fixed_seed_draw(n):
    T, partition = _paired_action(n)
    seen = []

    def record(apply):
        def recorded(x):
            seen.append(np.array(x))
            return apply(x)

        return recorded

    _rank_one_cores(Action(record(T.apply), record(T.apply_adj)), partition)
    rng = np.random.Generator(np.random.PCG64(linop._PROBE_SEED))
    fresh = rng.standard_normal((n, 6)).view(complex)
    assert len(seen) == 2
    assert np.array_equal(seen[0], fresh[:, :2]) and np.array_equal(seen[1], fresh[:, 2:])


def test_probe_block_is_read_only():
    block = linop._probe_block()
    assert block.shape == (linop._PROBE_ROWS, 3) and block.nbytes < 100_000
    with pytest.raises(ValueError):
        block[0, 0] = 1.0
    with pytest.raises(ValueError):
        block[:5][0, 0] = 1.0


def test_rank_one_cores_repeat_byte_for_byte():
    T, partition = _paired_action(7)
    def values():
        return b"".join(a.tobytes() for a in _rank_one_cores(T, partition))

    first, again = values(), values()
    # a call at another atom count in between leaves the probes untouched
    _rank_one_cores(*_paired_action(12))
    _rank_one_cores(*_paired_action(linop._PROBE_ROWS + 1))
    assert first == again == values()
    # lam, |lam| and |kappa| of 4 blocks
    assert [a.shape for a in _rank_one_cores(T, partition)] == [(4,)] * 3
