"""The paper's corollary for multiplication operators, through the report:
for m >= 2, ``M_u`` is m-isometric if and only if it is isometric.

``M_u`` is the weighted conditional type operator of singleton blocks and
``w = 1``, so ``classify_operator`` classifies it by both routes.
"""

import numpy as np
import pytest

from wctops import Mfunc, NumericError, make_partition, make_space, singleton_blocks
from wctops.cli import classify_operator

hypothesis = pytest.importorskip("hypothesis")
st_ = hypothesis.strategies

# A modulus with ||u|^2 - 1| near zero is m-isometric at large m only
# because the default threshold is absolute in |u|^2 - 1 (ROADMAP item 3);
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
    isometric = report.criteria_rows[0]["oracle_m_iso"]
    a2 = np.abs(u) ** 2
    for m in range(2, 5):
        assert report.criteria_rows[m - 1]["oracle_m_iso"] == isometric
        # the symbol route's residual is max |u|^2 ||u|^2 - 1|^m
        expected = float((a2 * np.abs(a2 - 1.0) ** m).max())
        residual = report.criteria_rows[m - 1]["quasi_residual"]
        assert abs(residual - expected) <= 1e-12 * max(1.0, float((a2 * (1.0 + a2) ** m).max()))


# A subnormal modulus is one the strategy above may draw, so the known
# fault on it shows here whatever the property test happens to draw: a
# one-atom operator of modulus 2.2250738585e-313, and two singletons with
# u = [1, 1e-320].
SUBNORMAL_OPERATORS = {
    "singleton": ([1.0], [2.2250738585e-313]),
    "two-atom": ([1.0, 1.0], [1.0, 1e-320]),
}


@pytest.mark.xfail(
    strict=True,
    raises=NumericError,
    reason=(
        "ROADMAP item 15: a block whose s = z* f is subnormal makes 1/s infinite "
        "in linop._rank_one_cores, and the report raises 'operator block "
        "overflows: probe residual nan at scale nan'"
    ),
)
@pytest.mark.parametrize("name", sorted(SUBNORMAL_OPERATORS))
def test_multiplication_operator_of_a_subnormal_value_classifies(name):
    weights, u = SUBNORMAL_OPERATORS[name]
    space = make_space(weights)
    partition = make_partition(space, singleton_blocks(len(u)))
    report = classify_operator(space, partition, Mfunc(u), Mfunc(np.ones(len(u))), 4)
    assert report.mismatches == []
    assert report.normality["normal"]
