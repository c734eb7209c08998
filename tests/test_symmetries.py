"""Verdicts are invariant under the symmetries that leave ``T`` unchanged:
the gauge ``(u, w) -> (u/c, c w)``, the phase ``(u, w) -> (e^{it} u,
e^{-it} w)`` and rescaling all masses."""

import numpy as np
import pytest

from wctops import Mfunc, make_partition, make_space
from wctops.cli import random_instance
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
    assert base[4] == 0
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
