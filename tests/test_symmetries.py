"""Verdicts are invariant under the symmetries that leave ``T`` unchanged:
the gauge ``(u, w) -> (u/c, c w)``, the phase ``(u, w) -> (e^{it} u,
e^{-it} w)`` and rescaling all masses; and under those that only reorder
its basis: permuting the atoms and relabelling the blocks.  The normality
verdict is invariant under ``T -> c T`` as well, and every verdict under
``T -> c T`` with ``|c| = 1``, which leaves every ``T*^k T^k`` unchanged."""

import numpy as np
import pytest

from wctops import (
    DefectOracle,
    Mfunc,
    essential_range,
    make_partition,
    make_space,
    symbols,
    wct_action,
)
from wctops.cli import classify_operator, random_instance, suite_instances
from test_block_symbols import _verdicts

hypothesis = pytest.importorskip("hypothesis")
st_ = hypothesis.strategies


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(
    seed=st_.integers(0, 2**32 - 1),
    log_c=st_.floats(-7.0, 7.0),
    theta=st_.floats(0.0, 2.0 * np.pi),
    log_s=st_.floats(-3.0, 3.0),
)
def test_verdicts_invariant_under_symmetries(seed, log_c, theta, log_s):
    inst = random_instance(np.random.default_rng(seed), (2, 6), (1, 3))
    u, w = inst.u.values, inst.w.values
    base = _verdicts(inst.space, inst.partition, inst.u, inst.w)
    assert base[2] == 0
    c = 10.0**log_c
    gauge = _verdicts(inst.space, inst.partition, Mfunc(u / c), Mfunc(w * c))
    phase = np.exp(1j * theta)
    rotated = _verdicts(inst.space, inst.partition, Mfunc(phase * u), Mfunc(w / phase))
    space = make_space(inst.space.weights * 10.0**log_s)
    rescaled = _verdicts(
        space, make_partition(space, inst.partition.blocks), inst.u, inst.w
    )
    assert gauge == base
    assert rotated == base
    assert rescaled == base


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    seed=st_.integers(0, 2**32 - 1),
    j=st_.integers(-500, 250),
    theta=st_.floats(0.0, 2.0 * np.pi),
)
def test_normality_is_scale_and_phase_free(seed, j, theta):
    # u -> 2^j u maps T to 2^j T exactly and u -> e^{it} u maps it to
    # e^{it} T: neither moves the angle between a block's two vectors, so
    # the verdict stays and its residual moves by roundoff alone
    inst = random_instance(np.random.default_rng(seed), (2, 10), (1, 4))
    ce, u = inst.cond_exp(), inst.u.values

    def normality(values):
        T = wct_action(ce, inst.w, Mfunc(values))
        return DefectOracle(T, inst.partition).normality()

    base = normality(u)
    for n in (normality(u * 2.0**j), normality(u * np.exp(1j * theta))):
        assert n["normal"] == base["normal"]
        assert abs(n["residual"] - base["residual"]) <= 1e-14


def _spectrum_match(space, partition, u, w):
    return classify_operator(space, partition, u, w, m_max=1).spectrum_match


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(
    seed=st_.integers(0, 2**32 - 1),
    log_c=st_.floats(-7.0, 7.0),
    log_s=st_.floats(-3.0, 3.0),
)
def test_spectrum_match_invariant_under_gauge_and_mass_rescaling(seed, log_c, log_s):
    # the match is relative to |T|, so what leaves T unchanged leaves it
    # ok, at the roundoff of the two routes
    inst = random_instance(np.random.default_rng(seed), (2, 6), (1, 3))
    u, w = inst.u.values, inst.w.values
    c = 10.0**log_c
    space = make_space(inst.space.weights * 10.0**log_s)
    matches = (
        _spectrum_match(inst.space, inst.partition, inst.u, inst.w),
        _spectrum_match(inst.space, inst.partition, Mfunc(u / c), Mfunc(w * c)),
        _spectrum_match(space, make_partition(space, inst.partition.blocks), inst.u, inst.w),
    )
    for match in matches:
        assert match["ok"] and match["distance"] <= 1e-14, match


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(
    seed=st_.integers(0, 2**32 - 1),
    shuffle_seed=st_.integers(0, 2**32 - 1),
)
def test_verdicts_invariant_under_atom_permutation_and_block_relabelling(
    seed, shuffle_seed
):
    # the dense oracle picks each block's core basis by an argmax over the
    # block's columns, so the atom order must not leak into a verdict
    inst = random_instance(np.random.default_rng(seed), (2, 6), (1, 3))
    base = _verdicts(inst.space, inst.partition, inst.u, inst.w)
    # atom perm[j] becomes atom j, and the blocks are listed in a new order
    shuffle = np.random.default_rng(shuffle_seed)
    perm = shuffle.permutation(inst.space.atom_count)
    new_index = np.argsort(perm)
    blocks = [new_index[list(blk)].tolist() for blk in inst.partition.blocks]
    blocks = [blocks[b] for b in shuffle.permutation(len(blocks))]
    space = make_space(inst.space.weights[perm])
    permuted = _verdicts(
        space,
        make_partition(space, blocks),
        Mfunc(inst.u.values[perm]),
        Mfunc(inst.w.values[perm]),
    )
    assert permuted == base


def test_verdicts_invariant_under_unimodular_scalings_of_u():
    # u -> c u maps T to c T, and |c| = 1 leaves every T*^k T^k and every
    # symbol modulus unchanged; a real u turns complex under c = +-i, and
    # c = e^{i theta} rounds, so the residuals move at roundoff and only
    # the verdicts are compared
    phases = [np.exp(1j * theta) for theta in (0.3, 1.1, 2.5, 4.0, 5.9)]
    for inst in suite_instances(300, seed=3):
        space, part, u = inst.space, inst.partition, inst.u.values
        base = _verdicts(space, part, inst.u, inst.w, m_max=6)
        for c in (1j, -1.0, -1j, *phases):
            scaled = _verdicts(space, part, Mfunc(c * u), inst.w, m_max=6)
            assert scaled == base, (inst.label, c)


@pytest.mark.parametrize("j", [-40, 40])
def test_power_of_two_scalings_of_u_scale_the_values_exactly(j):
    # u -> 2^j u maps E(uw) to 2^j E(uw) and T to 2^j T with no rounding
    # while nothing under- or overflows (ROADMAP item 12): the symbols, the
    # oracle's eigenvalues and norm and the essential range scale by exactly
    # 2^j, the oracle's t and g by exactly 4^j, and its sines, the normality
    # verdict and its residual stay, bit for bit
    c = 2.0**j
    instances = suite_instances(300, seed=3)
    assert len(instances) == 302
    for inst in instances:
        ce = inst.cond_exp()

        def values(u):
            alpha = symbols(ce, inst.w, u).alpha
            oracle = DefectOracle(wct_action(ce, inst.w, u), inst.partition)
            return alpha, essential_range(alpha), oracle

        alpha, attained, oracle = values(inst.u)
        s_alpha, s_attained, scaled = values(Mfunc(c * inst.u.values))
        assert s_alpha.tobytes() == (c * alpha).tobytes(), inst.label
        assert scaled.spectrum.tobytes() == (c * oracle.spectrum).tobytes(), inst.label
        assert s_attained == tuple(c * z for z in attained), inst.label
        assert scaled.t.tobytes() == (c * c * oracle.t).tobytes(), inst.label
        assert scaled.g.tobytes() == (c * c * oracle.g).tobytes(), inst.label
        assert scaled.norm.hex() == (c * oracle.norm).hex(), inst.label
        assert scaled.sine.tobytes() == oracle.sine.tobytes(), inst.label
        assert scaled.normality() == oracle.normality(), inst.label
