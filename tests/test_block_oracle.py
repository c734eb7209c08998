"""The block-stacked dense oracle against the whole matrix as one block.

``T f = w E(u f)`` leaves the span of every partition block invariant, so
the oracle may work on the diagonal blocks alone.  These tests hold it to
the one-block (whole-matrix) computation: identical verdicts, and norms,
residuals and spectra within 1e-12 of the operator's own scale.
"""

import numpy as np
import pytest

from wctops import (
    CondExp,
    DefectOracle,
    LinOp,
    Mfunc,
    NumericError,
    ValidationError,
    hermitian_eig,
    make_partition,
    make_space,
    wct_op,
)
from wctops.cli import suite_instances
from wctops.linop import _eigh_stack

PROBES = (0.25, 0.5, 2.0)
REL = 1e-12


def _close(a, b, scale):
    return abs(a - b) <= REL * max(1.0, scale)


def _assert_block_oracle_matches_whole(T, partition, m_max):
    blocks = DefectOracle(T, m_max, partition)
    whole = DefectOracle(T, m_max)
    nrm = whole.norm
    assert _close(blocks.norm, nrm, nrm)

    for vb, vw in zip(blocks.verdicts(), whole.verdicts(), strict=True):
        assert (vb.is_m_isometric, vb.is_quasi_m_isometric) == (
            vw.is_m_isometric,
            vw.is_quasi_m_isometric,
        )
        scale = nrm ** (2 * vw.m + 2)
        assert _close(vb.defect_norm, vw.defect_norm, scale)
        assert _close(vb.quasi_defect_norm, vw.quasi_defect_norm, scale)
        assert _close(vb.tol, vw.tol, vw.tol)

    nb, nw = blocks.normality(PROBES), whole.normality(PROBES)
    for key in ("normal", "hyponormal"):
        assert nb[key] == nw[key]
    for key in ("normal_residual", "hyponormal_residual"):
        assert _close(nb[key], nw[key], nrm**2)
    for pb, pw in zip(nb["p_hyponormal"], nw["p_hyponormal"], strict=True):
        assert pb["holds"] == pw["holds"]
        assert _close(pb["residual"], pw["residual"], nrm ** (2 * pw["p"]))

    sb, sw = blocks.spectrum, whole.spectrum
    assert sb.shape == sw.shape == (T.dim,)
    assert np.abs(sb - sw).max() <= REL * max(1.0, nrm)


def test_block_oracle_matches_whole_matrix_on_random_suite():
    for inst in suite_instances(200, seed=42):
        ce = inst.cond_exp()
        T = wct_op(ce, inst.w, inst.u)
        _assert_block_oracle_matches_whole(T, inst.partition, 4)


def _spec_operator(rng, sizes, u_of_w=None):
    """A random operator on ``sum(sizes)`` atoms, blocks of the given sizes
    laid over a shuffled atom order.  ``u_of_w(w, partition)`` gives ``u``
    values in place of random ones."""
    n = int(sum(sizes))
    space = make_space(rng.uniform(0.2, 2.0, n))
    perm = rng.permutation(n)
    cuts = np.cumsum(sizes)[:-1]
    partition = make_partition(space, [p.tolist() for p in np.split(perm, cuts)])

    def values():
        return rng.uniform(0.0, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))

    w = values()
    u = values() if u_of_w is None else u_of_w(w, partition)
    T = wct_op(CondExp(space, partition), Mfunc(w), Mfunc(u))
    return T, partition


@pytest.mark.parametrize(
    "sizes",
    [
        [1] * 300,  # all singletons: one stack of 300 1x1 blocks
        [180] + [5] * 10 + [2] * 10,  # one dominant block
        [1, 1, 2, 3, 3, 5, 8, 8, 13, 21, 34, 51],  # mixed sizes, 150 atoms
    ],
    ids=["singletons-300", "dominant-250", "mixed-150"],
)
def test_block_oracle_matches_whole_matrix_on_large_specs(sizes):
    rng = np.random.default_rng(len(sizes))
    T, partition = _spec_operator(rng, sizes)
    _assert_block_oracle_matches_whole(T, partition, 3)


def _zero_on_block(size):
    def u_of_w(w, partition):
        u = w.copy()
        (blk,) = [b for b in partition.blocks if len(b) == size]
        u[list(blk)] = 0.0
        return u

    return u_of_w


@pytest.mark.parametrize(
    "sizes,u_of_w",
    [
        # c_b parallel to a_b: the core's second basis vector comes from
        # roundoff alone
        ([3, 4, 6, 9, 2, 1], lambda w, _: w.conj()),
        ([3, 5, 8, 2], _zero_on_block(5)),  # an all-zero block
        ([180, 3, 3, 4, 2, 1], None),  # a dominant block
    ],
    ids=["parallel", "zero-block", "dominant-180"],
)
def test_rank_two_core_matches_whole_matrix(sizes, u_of_w):
    rng = np.random.default_rng(sum(sizes))
    T, partition = _spec_operator(rng, sizes, u_of_w)
    # every block becomes one 2x2 core of one array, a singleton's value
    # padded with an exact zero lane, and the spectrum gets back the n - 2k
    # zeros of the lanes cut from the blocks
    oracle = DefectOracle(T, 1, partition)
    assert oracle._t.shape == (1, len(sizes), 2, 2)
    single = oracle._t[0, partition.sizes == 1]
    assert len(single) == sizes.count(1)
    assert np.count_nonzero(single[:, 1]) + np.count_nonzero(single[:, 0, 1]) == 0
    assert oracle._left_out_zeros == sum(sizes) - 2 * len(sizes)
    _assert_block_oracle_matches_whole(T, partition, 3)


def test_singletons_and_one_pair_drop_the_padding_zeros():
    # 11 blocks in 12 atoms: 22 core lanes, so the spectrum drops 10 of the
    # padding's zeros
    T, partition = _spec_operator(np.random.default_rng(11), [1] * 10 + [2])
    oracle = DefectOracle(T, 1, partition)
    assert oracle._t.shape == (1, 11, 2, 2) and oracle._left_out_zeros == -10
    assert oracle.spectrum.shape == (12,)
    _assert_block_oracle_matches_whole(T, partition, 4)


def test_injective_singletons_keep_a_one_by_one_stack():
    # a unitary multiplication operator: no kernel lane may be padded on,
    # or every B_m would read norm one
    n = 12
    rng = np.random.default_rng(12)
    space = make_space(rng.uniform(0.2, 2.0, n))
    partition = make_partition(space, [[i] for i in range(n)])
    u = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    T = wct_op(CondExp(space, partition), Mfunc(np.ones(n)), Mfunc(u))
    oracle = DefectOracle(T, 6, partition)
    assert oracle._t.shape == (1, n, 1, 1) and oracle._left_out_zeros == 0
    for v in oracle.verdicts():
        assert v.is_m_isometric and v.is_quasi_m_isometric, v
        assert v.defect_norm <= 1e-14
    assert oracle.spectrum.shape == (n,)
    _assert_block_oracle_matches_whole(T, partition, 6)


@pytest.mark.parametrize(
    "sizes",
    [[1, 2, 3, 7, 20], [2, 3]],  # 25 lanes cut from the blocks; one
    ids=["many-zeros", "one-zero"],
)
def test_spectrum_keeps_the_zeros_of_the_cut_blocks(sizes):
    T, partition = _spec_operator(np.random.default_rng(13), sizes)
    spec = DefectOracle(T, 1, partition).spectrum
    assert spec.shape == (T.dim,)
    # each block is rank one: n - k eigenvalues vanish, and those of the
    # d - 2 lanes cut from a block of size d vanish exactly
    assert np.count_nonzero(spec == 0) >= sum(d - 2 for d in sizes if d >= 3)
    tiny = np.abs(spec) <= 1e-12 * DefectOracle(T, 0).norm
    assert np.count_nonzero(tiny) == T.dim - len(sizes)


def test_rank_two_block_raises_numeric_error():
    rng = np.random.default_rng(21)
    T, partition = _spec_operator(rng, [3, 4, 5])
    blk = list(partition.blocks[2])
    x = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    a = T.entries.copy()
    a[np.ix_(blk, blk)] += 0.5 * np.outer(x[0], x[1].conj())
    with pytest.raises(NumericError, match="not rank one"):
        DefectOracle(LinOp(a), 2, partition)
    # the off-block entries are still zero: only the core check trips
    assert np.count_nonzero(a) == np.count_nonzero(T.entries)


def test_off_block_entry_raises_numeric_error():
    rng = np.random.default_rng(5)
    T, partition = _spec_operator(rng, [3, 4, 5])
    i, j = partition.blocks[0][0], partition.blocks[2][1]
    a = T.entries.copy()
    a[i, j] = 1e-300
    DefectOracle(T, 2, partition)  # the unmodified operator passes
    with pytest.raises(NumericError, match="outside the diagonal blocks"):
        DefectOracle(LinOp(a), 2, partition)


def _hermitian_blocks(rng, r, k, d, scale):
    a = rng.normal(size=(r, k, d, d)) + 1j * rng.normal(size=(r, k, d, d))
    return scale * (a + a.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("defect_size,trips", [(1e-6, True), (1e-8, False)])
def test_corrupted_block_asymmetry_uses_whole_operator_scale(defect_size, trips):
    # operand 1 has a block of entry scale ~1e3 and one corrupted block of
    # scale ~1; the threshold 1e-10 * 1e3 = 1e-7 comes from the whole
    # operand, exactly as for the assembled block-diagonal matrix
    rng = np.random.default_rng(8)
    big = _hermitian_blocks(rng, 2, 1, 4, 500.0)
    small = _hermitian_blocks(rng, 2, 3, 4, 0.5)
    small[1, 2, 0, 1] += defect_size
    stack = np.concatenate([small, big], axis=1)

    full = np.zeros((16, 16), dtype=complex)
    for j, block in enumerate(stack[1]):
        full[4 * j : 4 * j + 4, 4 * j : 4 * j + 4] = block
    if trips:
        with pytest.raises(ValidationError, match="not Hermitian"):
            _eigh_stack(stack)
        with pytest.raises(ValidationError, match="not Hermitian"):
            hermitian_eig(LinOp(full))
    else:
        evals, _ = _eigh_stack(stack)
        whole, _ = hermitian_eig(LinOp(full))
        union = np.sort(evals[1].ravel())
        assert np.abs(union - whole).max() <= REL * np.abs(whole).max()
