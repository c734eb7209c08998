"""Verdicts are invariant under the symmetries that leave ``T`` unchanged:
the gauge ``(u, w) -> (u/c, c w)``, the phase ``(u, w) -> (e^{it} u,
e^{-it} w)`` and rescaling all masses; and under those that only reorder
its basis: permuting the atoms and relabelling the blocks.  The normality
verdict is invariant under ``T -> c T`` as well."""

import numpy as np
import pytest

from wctops import DefectOracle, Mfunc, make_partition, make_space, wct_action
from wctops.cli import classify_operator, random_instance
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
        return DefectOracle(T, 0, inst.partition).normality()

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
