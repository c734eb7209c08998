"""The block-stacked oracle against the dense reference.

``T f = w E(u f)`` leaves the span of every partition block invariant, so
the oracle may work on the rank-one cores of the diagonal blocks alone.
These tests read the cores from the matvecs of the dense matrix itself and
hold the oracle to ``dense_reference``, which computes on the whole
``n x n`` matrix in plain numpy: the verdicts the reference's norms give,
and norms, residuals and spectra within 1e-12 of the operator's own scale.
"""

import numpy as np
import pytest

import dense_reference
from conftest import dense, matrix_action
from wctops import (
    CondExp,
    DefectOracle,
    Mfunc,
    NumericError,
    ValidationError,
    make_partition,
    make_space,
    wct_action,
)
from wctops.cli import classify_operator, suite_instances
from wctops.classify import _gram_stack
from wctops.linop import _eigh_stack

PROBES = (0.25, 0.5, 2.0)
REL = 1e-12


def _close(a, b, scale):
    return abs(a - b) <= REL * max(1.0, scale)


def _default_tol(nrm, power):
    return 1e-9 * max(1.0, nrm**power)


def _assert_oracle_matches_dense(T, t, partition, m_max):
    """The oracle of the action ``T`` against the dense reference on its
    matrix ``t``."""
    oracle = DefectOracle(T, m_max, partition)
    ref = dense_reference.oracle(t, m_max, PROBES)
    nrm = ref["norm"]
    assert _close(oracle.norm, nrm, nrm)

    rows = zip(oracle.verdicts(), ref["defect_norms"], ref["quasi_defect_norms"], strict=True)
    for v, d, q in rows:
        tol = _default_tol(nrm, 2 * v.m)
        assert (v.is_m_isometric, v.is_quasi_m_isometric) == (d <= tol, q <= tol)
        scale = nrm ** (2 * v.m + 2)
        assert _close(v.defect_norm, d, scale)
        assert _close(v.quasi_defect_norm, q, scale)
        assert _close(v.tol, tol, tol)

    n = oracle.normality(PROBES)
    tol = _default_tol(nrm, 2)
    assert n["normal"] == (ref["normal_residual"] <= tol)
    assert n["hyponormal"] == (ref["hyponormal_residual"] <= tol)
    for key in ("normal_residual", "hyponormal_residual"):
        assert _close(n[key], ref[key], nrm**2)
    for probe, residual in zip(n["p_hyponormal"], ref["p_residuals"], strict=True):
        assert probe["holds"] == (residual <= _default_tol(nrm, 2 * probe["p"]))
        assert _close(probe["residual"], residual, nrm ** (2 * probe["p"]))

    # one eigenvalue per block; the other n - k are zero
    spec = oracle.spectrum
    assert spec.shape == (partition.block_count,)
    full = dense_reference.sorted_spectrum(spec, len(t) - len(spec))
    assert np.abs(full - ref["spectrum"]).max() <= REL * max(1.0, nrm)


def test_block_oracle_matches_whole_matrix_on_random_suite():
    for inst in suite_instances(200, seed=42):
        t = dense(inst.cond_exp(), inst.w, inst.u)
        _assert_oracle_matches_dense(matrix_action(t), t, inst.partition, 4)


def _spec_parts(rng, sizes, u_of_w=None):
    """A random operator on ``sum(sizes)`` atoms, blocks of the given sizes
    laid over a shuffled atom order: its space, partition, ``w`` and ``u``.
    ``u_of_w(w, partition)`` gives ``u`` values in place of random ones."""
    n = int(sum(sizes))
    space = make_space(rng.uniform(0.2, 2.0, n))
    perm = rng.permutation(n)
    cuts = np.cumsum(sizes)[:-1]
    partition = make_partition(space, [p.tolist() for p in np.split(perm, cuts)])

    def values():
        return rng.uniform(0.0, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))

    w = values()
    u = values() if u_of_w is None else u_of_w(w, partition)
    return space, partition, Mfunc(w), Mfunc(u)


def _dense_operator(space, partition, w, u):
    """The action of the dense matrix of ``f -> w E(u f)``, that matrix and
    the partition."""
    t = dense(CondExp(space, partition), w, u)
    return matrix_action(t), t, partition


def _spec_operator(rng, sizes, u_of_w=None):
    """``_spec_parts``' operator as ``_dense_operator`` gives it."""
    return _dense_operator(*_spec_parts(rng, sizes, u_of_w))


def _assert_report_lists_blocks(parts, blocks, zeros):
    """The report of ``_spec_parts``' operator lists ``blocks`` eigenvalues,
    one per block, and counts the other ``zeros`` as ``spectrum_zeros``."""
    space, partition, w, u = parts
    report = classify_operator(space, partition, u, w, m_max=1)
    assert len(report.spectrum) == blocks and report.spectrum_zeros == zeros
    assert report.spectrum_match["ok"]


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
    _assert_oracle_matches_dense(*_spec_operator(rng, sizes), 3)


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
    parts = _spec_parts(np.random.default_rng(sum(sizes)), sizes, u_of_w)
    T, t, partition = _dense_operator(*parts)
    # every block becomes one 2x2 core of one array, a singleton's value
    # padded with an exact zero lane; the spectrum lists the k core values,
    # and the report counts the n - k zeros of the other lanes
    oracle = DefectOracle(T, 1, partition)
    assert oracle._t.shape == (1, len(sizes), 2, 2)
    single = oracle._t[0, partition.sizes == 1]
    assert len(single) == sizes.count(1)
    assert np.count_nonzero(single[:, 1]) + np.count_nonzero(single[:, 0, 1]) == 0
    assert oracle.spectrum.shape == (len(sizes),)
    _assert_report_lists_blocks(parts, len(sizes), sum(sizes) - len(sizes))
    _assert_oracle_matches_dense(T, t, partition, 3)


def test_singletons_and_one_pair_drop_the_padding_zeros():
    # 11 blocks in 12 atoms: 22 core lanes, of which the spectrum lists the
    # 11 values and counts one zero, the pair's second lane
    sizes = [1] * 10 + [2]
    parts = _spec_parts(np.random.default_rng(11), sizes)
    T, t, partition = _dense_operator(*parts)
    oracle = DefectOracle(T, 1, partition)
    assert oracle._t.shape == (1, 11, 2, 2) and oracle.spectrum.shape == (11,)
    _assert_report_lists_blocks(parts, 11, 1)
    _assert_oracle_matches_dense(T, t, partition, 4)


def test_injective_singletons_keep_a_one_by_one_stack():
    # a unitary multiplication operator: no kernel lane may be padded on,
    # or every B_m would read norm one
    n = 12
    rng = np.random.default_rng(12)
    space = make_space(rng.uniform(0.2, 2.0, n))
    partition = make_partition(space, [[i] for i in range(n)])
    u = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    t = dense(CondExp(space, partition), Mfunc(np.ones(n)), Mfunc(u))
    T = matrix_action(t)
    oracle = DefectOracle(T, 6, partition)
    assert oracle._t.shape == (1, n, 1, 1)
    for v in oracle.verdicts():
        assert v.is_m_isometric and v.is_quasi_m_isometric, v
        assert v.defect_norm <= 1e-14
    # n values and no zeros
    assert oracle.spectrum.shape == (n,)
    report = classify_operator(space, partition, Mfunc(u), Mfunc(np.ones(n)), m_max=1)
    assert report.spectrum_zeros == 0 and len(report.spectrum) == n
    _assert_oracle_matches_dense(T, t, partition, 6)


@pytest.mark.parametrize(
    "sizes",
    # n - k = 28 zero eigenvalues, 24 of them on lanes cut from the cores;
    # 3 zeros, one of them on a cut lane
    [[1, 2, 3, 7, 20], [2, 3]],
    ids=["many-zeros", "one-zero"],
)
def test_spectrum_keeps_the_zeros_of_the_cut_blocks(sizes):
    parts = _spec_parts(np.random.default_rng(13), sizes)
    T, t, partition = _dense_operator(*parts)
    spec = DefectOracle(T, 1, partition).spectrum
    assert spec.shape == (len(sizes),)
    # each block is rank one: the n - k eigenvalues of its other lanes
    # vanish, which the report counts, and none of the k listed does
    _assert_report_lists_blocks(parts, len(sizes), sum(sizes) - len(sizes))
    ref = dense_reference.oracle(t, 0)
    assert np.count_nonzero(np.abs(ref["spectrum"]) <= 1e-12 * ref["norm"]) == len(t) - len(sizes)
    assert np.count_nonzero(np.abs(spec) <= 1e-12 * ref["norm"]) == 0


def test_rank_two_block_raises_numeric_error():
    rng = np.random.default_rng(21)
    T, t, partition = _spec_operator(rng, [3, 4, 5])
    blk = list(partition.blocks[2])
    x = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    a = t.copy()
    a[np.ix_(blk, blk)] += 0.5 * np.outer(x[0], x[1].conj())
    DefectOracle(T, 2, partition)  # the operator itself passes
    with pytest.raises(NumericError, match="not rank one"):
        DefectOracle(matrix_action(a), 2, partition)
    # the off-block entries are still zero: only the core check trips
    assert np.count_nonzero(a) == np.count_nonzero(t)


def _hermitian_blocks(rng, r, k, d, scale):
    a = rng.normal(size=(r, k, d, d)) + 1j * rng.normal(size=(r, k, d, d))
    return scale * (a + a.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("defect_size,trips", [(1e-6, True), (1e-8, False)])
def test_corrupted_block_asymmetry_uses_whole_operator_scale(defect_size, trips):
    # operand 1 has a block of entry scale ~1e3 and one corrupted block of
    # scale ~1; the threshold 1e-10 * 1e3 = 1e-7 comes from the whole
    # operand, exactly as for the assembled block-diagonal matrix.  The
    # blocks are 2x2, as every block the oracle builds is.  The corruption
    # is an imaginary part on a diagonal entry, of asymmetry defect_size:
    # both the Hermitian part that _eigh_stack solves and the lower
    # triangle that eigvalsh reads drop it, so the two spectra agree to
    # roundoff
    rng = np.random.default_rng(8)
    big = _hermitian_blocks(rng, 2, 1, 2, 500.0)
    small = _hermitian_blocks(rng, 2, 3, 2, 0.5)
    small[1, 2, 0, 0] += 0.5j * defect_size
    stack = np.concatenate([small, big], axis=1)

    full = np.zeros((8, 8), dtype=complex)
    for j, block in enumerate(stack[1]):
        full[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = block
    if trips:
        with pytest.raises(ValidationError, match="not Hermitian"):
            _eigh_stack(stack)
        with pytest.raises(ValidationError, match="not Hermitian"):
            _eigh_stack(full[None, None])
    else:
        evals = _eigh_stack(stack)
        whole = np.linalg.eigvalsh(full)
        union = np.sort(evals[1].ravel())
        assert np.abs(union - whole).max() <= REL * np.abs(whole).max()


def test_stack_eigensolver_refuses_blocks_larger_than_two():
    # the oracle's blocks are 1x1 or 2x2 cores; a clean Hermitian operand
    # of 4x4 blocks passes the symmetry check and is then refused
    stack = _hermitian_blocks(np.random.default_rng(9), 1, 3, 4, 1.0)
    with pytest.raises(ValidationError, match="1x1 and 2x2 blocks"):
        _eigh_stack(stack)


def _gram_reference(t, k_max):
    """``(T^k)* T^k`` for k = 0..k_max from matrix powers, in plain numpy."""
    power = np.broadcast_to(np.eye(t.shape[-1], dtype=complex), t.shape)
    grams = []
    for _ in range(k_max + 1):
        grams.append(power.conj().swapaxes(-1, -2) @ power)
        power = power @ t
    return np.concatenate(grams)


def _cores(rng, k, kind):
    """A one-operand stack of k rank-one cores ``[[lam, kappa], [0, 0]]``,
    or of k 1x1 values."""
    z = rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))
    if kind == "singletons":
        return z[None, :, :1, None]
    cores = np.zeros((1, k, 2, 2), dtype=complex)
    cores[0, :, 0] = z
    if kind == "nilpotent":
        cores[0, :, 0, 0] = 0.0
    elif kind == "zero":
        cores[0] = 0.0
    elif kind == "mixed":
        cores[0, ::3, 0, 0] = 0.0
        cores[0, 1::3] = 0.0
    return cores


@pytest.mark.parametrize("kind", ["random", "nilpotent", "zero", "mixed", "singletons"])
@pytest.mark.parametrize("k", [1, 8, 300])
def test_gram_stack_matches_matrix_powers(kind, k):
    # G_k = |lam|^(2(k-1)) T* T on a core: within 1e-14 of each operand's
    # entry scale of the grams of the matrix powers, with that scale
    rng = np.random.default_rng(k)
    t = _cores(rng, k, kind)
    k_max = 7
    grams, scales = _gram_stack(t, k_max)
    ref = _gram_reference(t, k_max)
    ref_scales = np.maximum(1.0, np.abs(ref).max(axis=(1, 2, 3)))
    assert grams.shape == ref.shape and scales.shape == (k_max + 1,)
    assert (np.abs(grams - ref).max(axis=(1, 2, 3)) <= 1e-14 * ref_scales).all()
    assert np.abs(scales - ref_scales).max() <= 1e-14 * ref_scales.max()
    if kind in ("nilpotent", "zero"):
        # T^2 = 0: every gram past G_1 = T* T is exactly zero
        assert not grams[2:].any()


def test_gram_stack_overflow_names_the_first_power():
    # |T|^2 = 1e120 on two singletons: (T^3)* T^3 = 1e360 is the first gram
    # past the double range
    space = make_space([1.0, 1.0])
    partition = make_partition(space, [[0], [1]])
    big = Mfunc(np.full(2, 1e30))
    T = wct_action(CondExp(space, partition), big, big)
    message = r"^the powers of T overflow: \(T\^3\)\* T\^3 is not finite$"
    # orders 4 and 2 build the grams up to k = 5 and 3; order 1 up to 2
    for m_max in (4, 2):
        with pytest.raises(NumericError, match=message):
            DefectOracle(T, m_max, partition)
    DefectOracle(T, 1, partition)
