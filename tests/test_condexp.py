import numpy as np
import pytest

from wctops import (
    CondExp,
    Mfunc,
    ValidationError,
    block_averages,
    geometric_space,
    make_partition,
    make_space,
    singleton_blocks,
    wct_action,
)
from conftest import cond_exp, mf, random_instances


def cond_exp_matrix(ce):
    """The matrix of ``E`` in the orthonormal atom basis, read column by
    column from the action of ``f -> 1 E(1 f)``."""
    n = ce.space.atom_count
    ones = Mfunc(np.ones(n))
    return wct_action(ce, ones, ones).apply(np.eye(n, dtype=complex))


def test_cond_exp_equal_weight_average(uniform4):
    _, _, ce = uniform4
    out = cond_exp(ce, mf([1, 2, 3, 4]))
    assert np.allclose(out, [1.5, 1.5, 3.5, 3.5])


def test_cond_exp_fixes_block_indicator():
    geo = geometric_space(0.5, 4)
    ce = CondExp(geo.space, geo.partition)
    indicator = mf([0.0, 0.0, 1.0, 0.0])  # the multiples-of-3 block {2}
    out = cond_exp(ce, indicator)
    assert np.allclose(out, indicator.values, atol=1e-14)


def test_cond_exp_of_constant_product():
    geo = geometric_space(0.5, 60)
    ce = CondExp(geo.space, geo.partition)
    n = geo.n.astype(float)
    out = cond_exp(ce, (1.0 / n) * n)
    assert np.abs(out - 1.0).max() < 1e-12
    assert np.abs(block_averages(ce, Mfunc(np.ones(60))) - 1.0).max() < 1e-12


def test_cond_exp_rejects_dimension_mismatch(uniform4):
    _, _, ce = uniform4
    with pytest.raises(ValidationError):
        cond_exp(ce, mf([1, 2, 3]))


def test_cond_exp_matrix_uniform_blocks(uniform4):
    _, _, ce = uniform4
    e = cond_exp_matrix(ce)
    half_block = np.full((2, 2), 0.5)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = half_block
    expected[2:, 2:] = half_block
    assert np.allclose(e, expected, atol=1e-14)
    assert np.allclose(e @ e, e, atol=1e-14)


def test_cond_exp_matrix_singletons_is_identity():
    space = make_space([0.3, 0.6, 2.0])
    ce = CondExp(space, make_partition(space, singleton_blocks(3)))
    assert np.allclose(cond_exp_matrix(ce), np.eye(3), atol=1e-15)


def test_cond_exp_matrix_weighted_single_block():
    space = make_space([1.0, 3.0])
    ce = CondExp(space, make_partition(space, [[0, 1]]))
    e = cond_exp_matrix(ce)
    root3 = np.sqrt(3.0) / 4.0
    assert np.allclose(e, [[0.25, root3], [root3, 0.75]], atol=1e-14)
    # projection oracle: idempotent with unit trace for one block
    assert np.allclose(e @ e, e, atol=1e-14)
    assert np.trace(e) == pytest.approx(1.0)


def _random_complex(rng, n):
    return rng.uniform(0, 2, n) * np.exp(2j * np.pi * rng.uniform(size=n))


def test_cond_exp_property_suite():
    rng = np.random.default_rng(1234)
    for inst in random_instances(seed=99, count=25):
        ce = inst.cond_exp()
        weights = ce.space.weights
        n = ce.space.atom_count
        f = Mfunc(_random_complex(rng, n))
        g_blockwise = _random_complex(rng, ce.partition.block_count)
        g = Mfunc(g_blockwise[ce.partition.block_index])

        ef = cond_exp(ce, f)
        # idempotence
        assert np.abs(cond_exp(ce, ef) - ef).max() < 1e-12
        # averaging identity on every block
        for b, blk in enumerate(ce.partition.blocks):
            idx = list(blk)
            lhs = (ef[idx] * weights[idx]).sum()
            rhs = (f.values[idx] * weights[idx]).sum()
            assert abs(lhs - rhs) < 1e-12
        # module law for block-constant multipliers
        lhs = cond_exp(ce, f.values * g.values)
        rhs = g.values * ef
        assert np.abs(lhs - rhs).max() < 1e-12
        # contraction |E(f)|^2 <= E(|f|^2)
        e_abs2 = cond_exp(ce, np.abs(f.values) ** 2)
        assert (np.abs(ef) ** 2 <= e_abs2 + 1e-12).all()
        # positivity
        pos = Mfunc(np.abs(f.values) + 0.1)
        assert (cond_exp(ce, pos).real > 0).all()
        # conditional Hoelder
        h = _random_complex(rng, n)
        e_fg = cond_exp(ce, f.values * h.conj())
        e_h2 = cond_exp(ce, np.abs(h) ** 2)
        assert (np.abs(e_fg) ** 2 <= e_abs2 * e_h2 + 1e-10).all()


def test_cond_exp_matrix_is_projection_of_block_rank():
    for inst in random_instances(seed=5, count=10):
        ce = inst.cond_exp()
        e = cond_exp_matrix(ce)
        assert np.abs(e - e.conj().T).max() < 1e-14
        evals = np.linalg.eigvalsh(e)
        assert np.all(
            (np.abs(evals) < 1e-10) | (np.abs(evals - 1.0) < 1e-10)
        )
        assert int(round(evals.sum())) == ce.partition.block_count


def test_cond_exp_matrix_equals_block_loop():
    # reference: the matrix assembled block by block; each entry is the
    # same product and quotient in another order, so it is equal to
    # within a few roundings
    for inst in random_instances(seed=9, count=20):
        ce = inst.cond_exp()
        s = np.sqrt(ce.space.weights)
        ref = np.zeros((ce.space.atom_count,) * 2, dtype=complex)
        for b, blk in enumerate(ce.partition.blocks):
            idx = np.array(blk, dtype=np.intp)
            ref[np.ix_(idx, idx)] = np.outer(s[idx], s[idx]) / ce.block_masses[b]
        assert np.abs(cond_exp_matrix(ce) - ref).max() <= 4 * np.finfo(float).eps


def test_block_masses_recomputable():
    geo = geometric_space(0.4, 12)
    ce = CondExp(geo.space, geo.partition)
    for b, blk in enumerate(ce.partition.blocks):
        assert ce.block_masses[b] == pytest.approx(
            geo.space.weights[list(blk)].sum(), abs=1e-12
        )
