"""The paper's corollary for multiplication operators, through the report:
for m >= 2, ``M_u`` is m-isometric if and only if it is isometric.

``M_u`` is the weighted conditional type operator of singleton blocks and
``w = 1``, so ``classify_operator`` classifies it by both routes.
"""

import numpy as np
import pytest

from wctops import Mfunc, make_partition, make_space, singleton_blocks
from wctops.cli import classify_operator

hypothesis = pytest.importorskip("hypothesis")
st_ = hypothesis.strategies

# A modulus with ||u|^2 - 1| near zero is m-isometric at large m only
# because the default threshold is absolute in |u|^2 - 1 (ROADMAP item 2);
# the moduli drawn here keep ||u|^2 - 1| >= 0.05, or exactly 0, so every
# verdict up to m = 4 is decided away from its threshold.
MODULI = st_.one_of(
    st_.just(0.0), st_.just(1.0), st_.floats(0.0, 0.97), st_.floats(1.03, 2.0)
)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    atoms=st_.lists(
        st_.tuples(st_.floats(0.1, 2.0), MODULI, st_.floats(0.0, 2.0 * np.pi)),
        min_size=1,
        max_size=6,
    ),
    unimodular=st_.booleans(),
)
def test_multiplication_operator_is_m_isometric_iff_isometric(atoms, unimodular):
    weights, moduli, phases = (np.array(col) for col in zip(*atoms))
    # half the draws are unitary, so that both verdicts are exercised
    u = (1.0 if unimodular else moduli) * np.exp(1j * phases)
    space = make_space(weights)
    partition = make_partition(space, singleton_blocks(len(atoms)))
    report = classify_operator(space, partition, Mfunc(u), Mfunc(np.ones(len(atoms))), 4)
    assert report.mismatches == []
    isometric = report.defect_verdicts[0]["is_m_isometric"]
    a2 = np.abs(u) ** 2
    for m in range(2, 5):
        assert report.defect_verdicts[m - 1]["is_m_isometric"] == isometric
        # the symbol route's residual is max |u|^2 ||u|^2 - 1|^m
        expected = float((a2 * np.abs(a2 - 1.0) ** m).max())
        residual = report.criteria_rows[m - 1]["quasi_residual"]
        assert abs(residual - expected) <= 1e-12 * max(1.0, float((a2 * (1.0 + a2) ** m).max()))
