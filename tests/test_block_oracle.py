"""The block oracle against the dense reference.

``T f = w E(u f)`` leaves the span of every partition block invariant, so
the oracle may work on the rank-one cores of the diagonal blocks alone.
These tests read the cores from the matvecs of the dense matrix itself and
hold the oracle to ``dense_reference``, which computes on the whole
``n x n`` matrix in plain numpy: the verdicts the reference's norms give,
and norms, residuals and spectra within 1e-12 of the operator's own scale.
"""

import numpy as np
import pytest

import core_reference
import dense_reference
from conftest import core_matrices, dense, matrix_action
from wctops import (
    CondExp,
    DefectOracle,
    Mfunc,
    NumericError,
    Partition,
    make_partition,
    make_space,
    wct_action,
)
from wctops.cli import classify_operator, suite_instances
from wctops.classify import NORMAL_EPS
from wctops.classify import _default_tol as oracle_tol

REL = 1e-12


def _close(a, b, scale):
    return abs(a - b) <= REL * max(1.0, scale)


def _default_tol(nrm, power):
    return 1e-9 * max(1.0, nrm**power)


def _assert_oracle_matches_dense(T, t, partition, m_max):
    """The oracle of the action ``T`` against the dense reference on its
    matrix ``t``."""
    oracle = DefectOracle(T, partition)
    ref = dense_reference.oracle(t, m_max)
    nrm = ref["norm"]
    assert _close(oracle.norm, nrm, nrm)

    # the verdicts each order's norms give at its threshold, against those
    # the reference's norms give at the reference threshold
    dn, qn = oracle.defect_norms(m_max)
    rows = zip(dn, qn, ref["defect_norms"], ref["quasi_defect_norms"], strict=True)
    for m, (got_d, got_q, d, q) in enumerate(rows, start=1):
        tol, got_tol = _default_tol(nrm, 2 * m), oracle_tol(oracle.norm, 2 * m, m)
        assert (got_d <= got_tol, got_q <= got_tol) == (d <= tol, q <= tol)
        scale = nrm ** (2 * m + 2)
        assert _close(got_d, d, scale)
        assert _close(got_q, q, scale)
        assert _close(got_tol, tol, tol)

    # the normality residual is the largest sine of a block's angle, read
    # by the reference from each diagonal block's commutator
    n = oracle.normality()
    sine = max(dense_reference.block_sines(t, partition.blocks))
    assert n["normal"] == (sine <= NORMAL_EPS) and n["tol"] == NORMAL_EPS
    assert _close(n["residual"], sine, 1.0)

    # one eigenvalue per block; the other n - k are zero
    spec = oracle.spectrum
    assert spec.shape == (partition.block_count,)
    full = dense_reference.sorted_spectrum(spec, len(t) - len(spec))
    assert np.abs(full - ref["spectrum"]).max() <= REL * max(1.0, nrm)


def test_block_oracle_matches_whole_matrix_on_random_suite():
    for inst in suite_instances(200, seed=42):
        t = dense(inst.cond_exp(), inst.w, inst.u)
        _assert_oracle_matches_dense(matrix_action(t), t, inst.partition, 8)


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
        [1] * 300,  # all singletons: 300 rows with kappa 0
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
    # every block becomes one pair (lam, |kappa|) of per-block values, with
    # |kappa| exactly 0 on a singleton; the spectrum lists the k values lam,
    # and the report counts the n - k zeros of the other lanes
    oracle = DefectOracle(T, partition)
    assert oracle._kappa.shape == (len(sizes),)
    single = oracle._kappa[partition.sizes == 1]
    assert len(single) == sizes.count(1)
    assert np.count_nonzero(single) == 0
    assert oracle.spectrum.shape == (len(sizes),)
    _assert_report_lists_blocks(parts, len(sizes), sum(sizes) - len(sizes))
    _assert_oracle_matches_dense(T, t, partition, 3)


def test_singletons_and_one_pair_drop_the_padding_zeros():
    # 11 blocks in 12 atoms: 11 pairs (lam, |kappa|), |kappa| exactly 0 on
    # the 10 singletons; the spectrum lists the 11 values and counts one
    # zero, the pair's second lane
    sizes = [1] * 10 + [2]
    parts = _spec_parts(np.random.default_rng(11), sizes)
    T, t, partition = _dense_operator(*parts)
    oracle = DefectOracle(T, partition)
    assert oracle._kappa.shape == (11,) and oracle.spectrum.shape == (11,)
    assert np.count_nonzero(oracle._kappa[partition.sizes == 1]) == 0
    _assert_report_lists_blocks(parts, 11, 1)
    _assert_oracle_matches_dense(T, t, partition, 4)


def test_injective_singletons_keep_a_one_by_one_stack():
    # a unitary multiplication operator: it has no kernel lane, which would
    # give every B_m norm one, so its cores are the 1x1 values lam
    n = 12
    rng = np.random.default_rng(12)
    space = make_space(rng.uniform(0.2, 2.0, n))
    partition = make_partition(space, [[i] for i in range(n)])
    u = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    t = dense(CondExp(space, partition), Mfunc(np.ones(n)), Mfunc(u))
    T = matrix_action(t)
    oracle = DefectOracle(T, partition)
    assert oracle._kappa.shape == (n,) and (oracle._kappa == 0).all()
    assert core_matrices(oracle).shape == (n, 1, 1)
    dn, qn = oracle.defect_norms(6)
    for m, (d, q) in enumerate(zip(dn, qn), start=1):
        tol = oracle_tol(oracle.norm, 2 * m, m)
        assert d <= tol and q <= tol, m
        assert d <= 1e-14
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
    spec = DefectOracle(T, partition).spectrum
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
    DefectOracle(T, partition)  # the operator itself passes
    with pytest.raises(NumericError, match="not rank one"):
        DefectOracle(matrix_action(a), partition)
    # the off-block entries are still zero: only the core check trips
    assert np.count_nonzero(a) == np.count_nonzero(t)


def _cores(rng, k, kind):
    """k rank-one cores ``[[lam, kappa], [0, 0]]``, or k 1x1 values, as one
    ``(k, d, d)`` array."""
    z = rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))
    if kind == "singletons":
        return z[:, :1, None]
    cores = np.zeros((k, 2, 2), dtype=complex)
    cores[:, 0] = z
    if kind == "nilpotent":
        cores[:, 0, 0] = 0.0
    elif kind == "zero":
        cores[:] = 0.0
    elif kind == "mixed":
        cores[::3, 0, 0] = 0.0
        cores[1::3] = 0.0
    return cores


@pytest.mark.parametrize("kind", ["random", "nilpotent", "zero", "mixed", "singletons"])
@pytest.mark.parametrize("k", [1, 8, 60])
def test_closed_forms_match_the_dense_defects_on_every_kind_of_core(kind, k):
    # the operator whose blocks are k given cores: the oracle's closed forms
    # against B_m and T* B_m T built as n x n matrices by the dense
    # reference, up to m = 8; a nilpotent core (lam = 0) has T^2 = 0 and
    # c_m = (-1)^(m-1) m, a zero core has t = g = 0
    cores = _cores(np.random.default_rng(k), k, kind)
    d = cores.shape[-1]
    t = np.zeros((k * d, k * d), dtype=complex)
    for b, core in enumerate(cores):
        t[b * d : (b + 1) * d, b * d : (b + 1) * d] = core
    partition = Partition.from_labels(np.arange(k * d) // d)
    _assert_oracle_matches_dense(matrix_action(t), t, partition, 8)


def test_defect_norm_overflow_names_the_first_order():
    # |T|^2 = 1e120 on two singletons: the quasi-defect norm of order 2,
    # |t - 1|^2 g = 1e360, is the first past the double range
    space = make_space([1.0, 1.0])
    partition = make_partition(space, [[0], [1]])
    big = Mfunc(np.full(2, 1e30))
    T = wct_action(CondExp(space, partition), big, big)
    message = r"^the powers of T overflow: the defect norms of order 2 are not finite$"
    oracle = DefectOracle(T, partition)
    for m_max in (4, 2):
        with pytest.raises(NumericError, match=message):
            oracle.defect_norms(m_max)
    assert oracle.defect_norms(1)[1][0] == pytest.approx(1e240)


def _assert_matches_core_reference(T, partition):
    """The oracle's per-block values equal, byte for byte, those of the
    formula that takes every rare case with ``np.where``; that formula's
    data, which picks the cases, is returned."""
    oracle, ref = DefectOracle(T, partition), core_reference.values(T, partition)
    for name in ("spectrum", "t", "g", "sine"):
        assert getattr(oracle, name).tobytes() == ref[name].tobytes(), name
    assert oracle.norm.hex() == ref["norm"].hex()
    return ref


def test_per_block_values_match_the_full_where_reference_on_the_suite():
    # the cases that reach a second formula on the suite: a singleton's
    # corner, and a |y|^2 |r|^2 of 0 where a singleton's |r|^2 is 0
    singletons = zero_rr = 0
    instances = suite_instances(300, seed=3)
    assert len(instances) == 302
    for inst in instances:
        T = wct_action(inst.cond_exp(), inst.w, inst.u)
        ref = _assert_matches_core_reference(T, inst.partition)
        singletons += bool((inst.partition.sizes == 1).any())
        zero_rr += bool((ref["rr"] == 0).any())
    assert singletons and zero_rr


def _wct(weights, blocks, u, w):
    """The action of ``f -> w E(u f)`` and its partition."""
    space = make_space(weights)
    partition = make_partition(space, blocks)
    w, u = Mfunc(np.asarray(w)), Mfunc(np.asarray(u))
    return wct_action(CondExp(space, partition), w, u), partition


def _zero_block_operator():
    rng = np.random.default_rng(18)
    space, partition, w, u = _spec_parts(rng, [3, 5, 8, 2], _zero_on_block(5))
    return wct_action(CondExp(space, partition), w, u), partition


def _subnormal_operator():
    """CI's spec whose first block has a subnormal ``|T f|^2``."""
    u, w = [1e-79, 2e-79, 1, 0.5], [3e-79, 1e-79, 1, 2]
    return _wct([0.3, 0.2, 0.25, 0.25], [[0, 1], [2, 3]], u, w)


def _nilpotent_operator():
    """N(1e-3, 2^-150): a singleton of value 2^-300 beside a nilpotent
    two-atom block."""
    s, c = 1e-3, 2.0**-150
    u, w = c * np.array([1.0, s, 0.0]), c * np.array([1.0, 0.0, s])
    return _wct([0.5, 0.25, 0.25], [[0], [1, 2]], u, w)


def _large_operator():
    """One block of two atoms with ``|T_b|`` near 1e100."""
    return _wct([1.0, 1.0], [[0, 1]], [1e100, 0.5e100], [1.0, -0.3j])


TINY = np.finfo(float).tiny


@pytest.mark.parametrize(
    "operator,case",
    [
        # s = 0 on the block where u vanishes
        (_zero_block_operator, lambda ref: (ref["s"] == 0).any()),
        (_subnormal_operator, lambda ref: (ref["yy"] < TINY).any()),
        # |y|^2 |r|^2 of the nilpotent block, near 2^-1200, underflows
        (
            _nilpotent_operator,
            lambda ref: ((ref["both"] < TINY) & (ref["rr"] > 0) & (ref["yy"] > 0)).any(),
        ),
        # |y|^2 |r|^2, near 1e400, overflows
        (_large_operator, lambda ref: (ref["both"] == np.inf).all()),
    ],
    ids=["zero-block", "subnormal-y", "underflow-yr", "overflow-yr"],
)
def test_per_block_values_match_the_full_where_reference_on_rare_cases(operator, case):
    T, partition = operator()
    assert case(_assert_matches_core_reference(T, partition))
