"""A real atom function stays real, and gives the reports of its complex copy.

``Mfunc`` keeps a bool, integer or float input as float64 and any other as
complex128.  Every pass over a real function then runs real arithmetic, and
every report on real ``u`` and ``w`` must be the report on ``u + 0j`` and
``w + 0j``, byte for byte: numpy takes a complex product with a real factor
as the product with ``x + 0j``, and divides a complex by a real through the
reciprocal, which ``wct_action`` therefore multiplies by.
"""

import json
import tracemalloc

import numpy as np
import pytest

from wctops import Mfunc, geometric_space, grid_space, make_partition, make_space
from wctops.cli import classify_operator
from wctops.condexp import CondExp, block_moments
from wctops.criteria import symbols
from wctops.errors import NumericError

hypothesis = pytest.importorskip("hypothesis")
st_ = hypothesis.strategies


@pytest.mark.parametrize(
    "values, dtype",
    [
        (np.array([True, False, True]), np.float64),
        (np.array([-3, 0, 7], dtype=np.int64), np.float64),
        (np.array([1, 2, 3], dtype=np.uint8), np.float64),
        (np.array([-0.5, 0.0, 2.5], dtype=np.float32), np.float64),
        (np.array([-0.5, -0.0, 2.5]), np.float64),
        ([1, -2.5, 0.0], np.float64),
        (np.array([1 + 2j, -0.5, 0.0]), np.complex128),
        (np.array([1 + 2j, 3], dtype=np.complex64), np.complex128),
        ([1, 2j], np.complex128),
    ],
    ids=["bool", "int", "uint8", "float32", "float", "list", "complex", "complex64", "list-complex"],
)
def test_mfunc_values_are_float64_for_real_input_and_complex128_otherwise(values, dtype):
    f = Mfunc(values)
    assert f.values.dtype == dtype
    assert not f.values.flags.writeable
    assert f.values.tolist() == np.asarray(values).astype(dtype).tolist()
    if isinstance(values, np.ndarray):
        # a copy: the caller's array stays writeable and unshared
        assert values.flags.writeable and not np.shares_memory(f.values, values)


def test_a_real_function_makes_no_complex_copy():
    # a complex copy of u alone would take n * 16 bytes
    nx, ny = 16, 1 << 14
    n = nx * ny
    grid = grid_space(nx, ny)
    ce = CondExp(grid.space, grid.partition)
    w = Mfunc(np.sqrt((4.0 + grid.xs[:, None]) * grid.ys).reshape(-1))
    values = (grid.ys ** (grid.xs[:, None] / 8.0)).reshape(-1)
    tracemalloc.start()
    try:
        u = Mfunc(values)
        symbols(ce, w, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 16, f"peak {peak} bytes for {n} atoms"
    assert u.values.dtype == np.float64


def _report(space, partition, u, w, m_max) -> str:
    """The structured report as JSON, or the message of the error raised."""
    try:
        return json.dumps(classify_operator(space, partition, u, w, m_max).to_dict())
    except NumericError as exc:
        return f"NumericError: {exc}"


def _assert_real_equals_complex(space, partition, x, y, m_max):
    """Real ``x`` and ``y`` give the bytes of their complex copies in the
    moments and the JSON of the report."""
    u, w = Mfunc(x), Mfunc(y)
    uc, wc = Mfunc(x.astype(complex)), Mfunc(y.astype(complex))
    assert u.values.dtype == np.float64 and uc.values.dtype == np.complex128
    ce = CondExp(space, partition)
    real, cplx = block_moments(ce, u.values, w.values), block_moments(ce, uc.values, wc.values)
    for a, b in zip(real, cplx):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert _report(space, partition, u, w, m_max) == _report(space, partition, uc, wc, m_max)


# entries of u and w: negatives, exact signed zeros, integers and fractions
VALUES = st_.one_of(
    st_.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0]),
    st_.floats(-4.0, 4.0, allow_nan=False),
)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(data=st_.data(), n=st_.integers(1, 12), m_max=st_.integers(1, 6))
def test_real_functions_give_the_report_of_their_complex_copies(data, n, m_max):
    draw = data.draw
    weights = draw(st_.lists(st_.floats(0.05, 2.0), min_size=n, max_size=n))
    x = np.array(draw(st_.lists(VALUES, min_size=n, max_size=n)))
    y = np.array(draw(st_.lists(VALUES, min_size=n, max_size=n)))
    # singleton and larger blocks, mixed in one partition
    perm = draw(st_.permutations(range(n)))
    cuts = sorted(draw(st_.sets(st_.integers(1, max(1, n - 1)), max_size=n - 1)))
    blocks = [list(perm[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    space = make_space(weights)
    _assert_real_equals_complex(space, make_partition(space, blocks), x, y, m_max)


@pytest.mark.parametrize("p, n_atoms", [(0.5, 60), (0.3, 25)])
def test_example_b_reports_the_same_on_real_and_complex_functions(p, n_atoms):
    # the dense oracle reads T through wct_action, whose 1 / mu(B) factor
    # rounds as numpy's complex-by-real division only as a reciprocal
    geo = geometric_space(p, n_atoms)
    n = geo.n.astype(float)
    _assert_real_equals_complex(geo.space, geo.partition, 1.0 / n, n, 6)
    _assert_real_equals_complex(geo.space, geo.partition, -np.sqrt(n) / 3.0, np.cos(n), 6)


def test_grid_reports_the_same_on_real_and_complex_functions():
    # example-a's functions on a grid small enough for the dense oracle
    grid = grid_space(6, 7)
    x = (grid.ys ** (grid.xs[:, None] / 8.0)).reshape(-1)
    y = np.sqrt((4.0 + grid.xs[:, None]) * grid.ys).reshape(-1)
    _assert_real_equals_complex(grid.space, grid.partition, x, y, 4)
    _assert_real_equals_complex(grid.space, grid.partition, x - 0.9, -y, 4)
