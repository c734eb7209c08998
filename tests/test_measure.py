import math

import numpy as np
import pytest

try:
    import hypothesis
    from hypothesis import strategies as st_
except ImportError:  # only the contiguous-partition property needs it
    hypothesis = None

from wctops import (
    Mfunc,
    Partition,
    ValidationError,
    ensure_on_space,
    geometric_space,
    grid_space,
    make_partition,
    make_space,
    singleton_blocks,
)
from wctops.measure import MOMENT_CHUNK


def test_make_space_uniform():
    space = make_space([0.25, 0.25, 0.25, 0.25])
    assert space.atom_count == 4
    assert space.total_mass == pytest.approx(1.0)


def test_make_space_geometric_weights():
    space = make_space([0.5, 0.25, 0.125, 0.0625])
    assert np.allclose(space.weights, [0.5, 0.25, 0.125, 0.0625])


def test_make_space_rejects_negative_weight():
    with pytest.raises(ValidationError, match="index 1"):
        make_space([1.0, -0.5])


def test_make_space_rejects_zero_and_nan():
    with pytest.raises(ValidationError, match="index 0"):
        make_space([0.0, 1.0])
    with pytest.raises(ValidationError):
        make_space([1.0, float("nan")])
    with pytest.raises(ValidationError):
        make_space([])


def test_make_space_prints_a_plain_float():
    with pytest.raises(ValidationError) as info:
        make_space([1.0, 0.0])
    assert str(info.value) == (
        "weight at index 1 must be a finite positive number, got 0.0"
    )


def test_a_repeated_mass_is_kept_as_one_value():
    base = np.array([0.25])
    source = np.lib.stride_tricks.as_strided(base, shape=(4,), strides=(0,))
    assert source.flags.writeable
    space = make_space(source)
    source[0] = 2.0  # the caller's memory, after the space is built
    assert base.tolist() == [2.0]
    assert space.weights.tolist() == [0.25] * 4
    assert space.weights.strides == (0,) and not space.weights.flags.writeable
    assert space.atom_count == 4
    integer = make_space(np.broadcast_to(3, 5)).weights
    assert integer.dtype == np.float64 and integer.tolist() == [3.0] * 5


def _handed_over(dtype):
    """A fresh array of ``1 .. 4`` that owns its data, with its write flag
    cleared and no other view of it left."""
    raw = np.arange(1, 5).astype(dtype)
    raw.setflags(write=False)
    return raw


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_a_handed_over_array_is_kept_without_a_copy(dtype):
    raw = _handed_over(dtype)
    assert Mfunc(raw).values is raw
    assert not raw.flags.writeable
    if dtype is np.float64:
        raw = _handed_over(dtype)
        assert make_space(raw).weights is raw
    # a kept array is checked as a copied one is
    bad = np.array([1, np.inf], dtype=dtype)
    bad.setflags(write=False)
    with pytest.raises(ValidationError, match="index 1 is not finite"):
        Mfunc(bad)
    if dtype is np.float64:
        with pytest.raises(ValidationError, match="weight at index 1 "):
            make_space(bad)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_an_array_the_caller_may_still_write_is_copied(dtype):
    writable = np.arange(1, 5).astype(dtype)
    # a read-only view of an array that stays writable
    base = np.arange(1, 5).astype(dtype)
    view = base[:]
    view.setflags(write=False)
    other = _handed_over(np.float32 if dtype is np.float64 else np.complex64)
    for raw in (writable, view, other):
        kept = [Mfunc(raw).values]
        if dtype is np.float64:
            kept.append(make_space(raw).weights)
        for values in kept:
            assert values.dtype == dtype and not values.flags.writeable
            assert not np.shares_memory(values, raw)
            assert values.tolist() == [1, 2, 3, 4]
    # the caller's arrays keep their flags
    assert writable.flags.writeable and base.flags.writeable


@pytest.mark.parametrize("mass", [0.0, -1.0, np.inf, np.nan])
def test_a_bad_repeated_mass_is_refused_as_a_copied_one(mass):
    with pytest.raises(ValidationError) as repeated:
        make_space(np.broadcast_to(mass, 5))
    with pytest.raises(ValidationError) as copied:
        make_space(np.full(5, mass))
    assert str(repeated.value) == str(copied.value)
    assert str(repeated.value).startswith("weight at index 0 ")


def test_grid_space_builds_its_atom_arrays_on_first_read():
    grid = grid_space(3, 4)
    part = grid.partition
    assert grid.space.weights.strides == (0,)
    assert not grid.space.weights.flags.writeable
    assert "atoms" not in vars(part) and "block_index" not in vars(part)
    assert part.atom_count == 12
    np.testing.assert_array_equal(part.block_index, np.repeat(np.arange(3), 4))
    np.testing.assert_array_equal(part.atoms, np.arange(12))
    for name in ("atoms", "block_index"):
        a = getattr(part, name)
        assert a is getattr(part, name) and not a.flags.writeable


def _assert_same_partition(a, b):
    assert a.blocks == b.blocks
    for name in ("block_index", "atoms", "sizes"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.block_count == b.block_count
    assert a.atom_count == b.atom_count


def test_partition_from_labels_equals_make_partition():
    space = make_space([0.1] * 7)
    blocks = [(1, 4, 6), (0, 2), (3, 5)]
    part = Partition.from_labels(np.array([1, 0, 1, 2, 0, 2, 0]))
    _assert_same_partition(part, make_partition(space, blocks))
    assert part.blocks == tuple(blocks)
    assert part.block_index.tolist() == [1, 0, 1, 2, 0, 2, 0]
    assert part.sizes.tolist() == [3, 2, 2] and part.block_count == 3


def test_partition_from_labels_rejects_a_gap_and_bad_labels():
    with pytest.raises(ValidationError) as info:
        Partition.from_labels([0, 2, 2, 0])
    assert str(info.value) == "block 1 is empty"
    for labels in ([0, -1], [0.0, 1.0], []):
        with pytest.raises(ValidationError):
            Partition.from_labels(labels)


@pytest.mark.parametrize("nx,ny", [(1, 5), (2, 2), (3, 4), (7, 11)])
def test_grid_space_partition_equals_its_column_blocks(nx, ny):
    grid = grid_space(nx, ny)
    columns = [tuple(range(i * ny, (i + 1) * ny)) for i in range(nx)]
    _assert_same_partition(grid.partition, make_partition(grid.space, columns))


@pytest.mark.parametrize("n_atoms", [3, 4, 5, 60, 700])
def test_geometric_space_partition_equals_its_mod3_blocks(n_atoms):
    geo = geometric_space(0.5, n_atoms)
    mult3 = tuple(i for i in range(n_atoms) if (i + 1) % 3 == 0)
    rest = tuple(i for i in range(n_atoms) if (i + 1) % 3 != 0)
    _assert_same_partition(geo.partition, make_partition(geo.space, [mult3, rest]))


def test_geometric_space_names_the_underflow_limit():
    # at p = 1/2 the last mass is 2**-n_atoms, positive down to 2**-1074
    assert geometric_space(0.5, 1074).space.weights[-1] > 0.0
    with pytest.raises(ValidationError) as info:
        geometric_space(0.5, 1075)
    assert str(info.value) == (
        "with p=0.5 the masses p*(1-p)**(n-1) underflow to 0 past "
        "n_atoms=1074; got n_atoms=1075"
    )


def test_make_partition_two_blocks():
    space = make_space([0.25] * 4)
    part = make_partition(space, [[0, 1], [2, 3]])
    assert part.block_count == 2
    assert list(part.block_index) == [0, 0, 1, 1]


def test_make_partition_singletons():
    space = make_space(np.linspace(0.1, 1.0, 7))
    part = make_partition(space, singleton_blocks(7))
    assert part.block_count == 7


def test_make_partition_rejects_overlap():
    space = make_space([0.25] * 4)
    with pytest.raises(ValidationError, match="atom 1"):
        make_partition(space, [[0, 1], [1, 2, 3]])
    # four in-range entries: only the coverage of every atom tells that 1
    # repeats and 3 is missing
    with pytest.raises(ValidationError) as info:
        make_partition(space, [[0, 1], [1, 2]])
    assert str(info.value) == "atom 1 appears in both block 0 and block 1"


def test_make_partition_rejects_gap():
    space = make_space([0.25] * 4)
    with pytest.raises(ValidationError, match="not covered"):
        make_partition(space, [[0, 1], [3]])


def test_make_partition_rejects_out_of_range():
    space = make_space([0.25] * 4)
    with pytest.raises(ValidationError, match="out-of-range"):
        make_partition(space, [[0, 1], [2, 3, 4]])
    with pytest.raises(ValidationError, match="empty"):
        make_partition(space, [[0, 1, 2, 3], []])


@pytest.mark.parametrize(
    "sizes, message",
    [
        ([2, 1], "the block sizes add up to 3 but 4 atoms are listed"),
        ([2, 3], "the block sizes add up to 5 but 4 atoms are listed"),
        ([3, 2, -1], "block 2 has negative size -1"),
    ],
)
def test_partition_rejects_sizes_that_do_not_split_the_atoms(sizes, message):
    with pytest.raises(ValidationError) as info:
        Partition([0, 1, 2, 3], sizes, 4)
    assert str(info.value) == message


def _general_contiguous(sizes):
    """The general constructor's partition of ``arange(n)`` into blocks of
    ``sizes``."""
    n = int(sum(sizes))
    return Partition(np.arange(n), sizes, n)


def _assert_contiguous_matches_general(sizes, rng):
    part, general = Partition.contiguous(sizes), _general_contiguous(sizes)
    _assert_same_partition(part, general)
    for name in ("atoms", "sizes", "block_index"):
        a, b = getattr(part, name), getattr(general, name)
        assert a.dtype == b.dtype and not a.flags.writeable
    np.testing.assert_array_equal(part.starts, general.starts)
    n = part.atom_count
    for shape in ((n,), (n, 3)):
        for dtype in (float, complex):
            x = _atom_values(rng, shape, dtype)
            assert part.block_sums(x).tobytes() == general.block_sums(x).tobytes()


@pytest.mark.parametrize("sizes", [[1], [5], [1, 1, 1], [3, 1, 4], [10_000] * 3])
def test_contiguous_partition_equals_the_general_constructor(sizes):
    _assert_contiguous_matches_general(sizes, np.random.default_rng(len(sizes)))


if hypothesis is not None:

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(
        sizes=st_.lists(st_.integers(1, 40), min_size=1, max_size=12),
        seed=st_.integers(0, 2**32 - 1),
    )
    def test_contiguous_partition_property(sizes, seed):
        _assert_contiguous_matches_general(sizes, np.random.default_rng(seed))


@pytest.mark.parametrize(
    "sizes, message",
    [
        ([], "a partition needs at least one block"),
        ([2, 0, 1], "block 1 is empty"),
        ([0], "block 0 is empty"),
        ([3, 2, -1], "block 2 has negative size -1"),
        ([2, -1, 0], "block 1 has negative size -1"),
    ],
)
def test_contiguous_partition_rejects_what_the_general_constructor_does(sizes, message):
    with pytest.raises(ValidationError) as info:
        Partition.contiguous(sizes)
    assert str(info.value) == message
    # the general constructor refuses an atom count below 1 before it reads
    # a zero size, so [0] is told apart only by the contiguous one
    if sizes != [0]:
        with pytest.raises(ValidationError) as info:
            _general_contiguous(sizes)
        assert str(info.value) == message


def test_geometric_space_half():
    geo = geometric_space(0.5, 4)
    assert np.allclose(geo.space.weights, [0.5, 0.25, 0.125, 0.0625])
    # block of multiples of 3 holds the single atom n=3 (index 2)
    assert geo.partition.blocks == ((2,), (0, 1, 3))
    assert list(geo.n) == [1, 2, 3, 4]
    assert geo.tail_mass == pytest.approx(0.0625)


def test_geometric_space_total_mass_matches_tail():
    for p, n_atoms in [(0.5, 4), (0.5, 60), (0.3, 17), (0.9, 25)]:
        geo = geometric_space(p, n_atoms)
        assert geo.space.total_mass == pytest.approx(1.0 - geo.tail_mass, abs=1e-12)


def test_geometric_space_deep_truncation_tail():
    geo = geometric_space(0.5, 60)
    assert geo.tail_mass < 1e-15


def test_geometric_space_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        geometric_space(1.5, 4)
    with pytest.raises(ValidationError):
        geometric_space(0.0, 4)
    with pytest.raises(ValidationError):
        geometric_space(0.5, 2)


def test_grid_space_2x2():
    grid = grid_space(2, 2)
    assert grid.space.atom_count == 4
    assert np.allclose(grid.space.weights, 0.25)
    assert grid.partition.blocks == ((0, 1), (2, 3))
    assert grid.xs.tolist() == [0.25, 0.75] and grid.ys.tolist() == [0.25, 0.75]


def test_grid_space_single_column():
    grid = grid_space(1, 5)
    assert grid.partition.block_count == 1
    assert grid.xs.tolist() == [0.5] and grid.ys.shape == (5,)


def test_grid_space_block_masses():
    grid = grid_space(7, 11)
    for blk in grid.partition.blocks:
        assert grid.space.weights[list(blk)].sum() == pytest.approx(1.0 / 7)


def test_grid_space_rejects_zero_dimension():
    with pytest.raises(ValidationError):
        grid_space(0, 5)
    with pytest.raises(ValidationError):
        grid_space(5, 0)


def test_grid_space_midpoint_quadrature_converges():
    # E(|u|^2) with u = y**(x/8) should approach 4/(4+x) column by column
    grid = grid_space(8, 500)
    u2 = (grid.ys ** (grid.xs[:, None] / 4.0)).ravel()
    for blk, x in zip(grid.partition.blocks, grid.xs):
        idx = list(blk)
        measured = (u2[idx] * grid.space.weights[idx]).sum() / (1.0 / 8)
        assert measured == pytest.approx(4.0 / (4.0 + x), rel=1e-3)


def test_ensure_on_space_rejects_length_mismatch():
    space = make_space([0.5, 0.5])
    with pytest.raises(ValidationError, match="3 values"):
        ensure_on_space(Mfunc(np.ones(3)), space)


def test_mfunc_rejects_non_finite():
    with pytest.raises(ValidationError):
        Mfunc(np.array([1.0, np.inf]))


def _atom_values(rng, shape, dtype):
    if dtype is complex:
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if dtype is float:
        return rng.normal(size=shape)
    if dtype is int:
        return rng.integers(-9, 10, size=shape)
    return rng.random(shape) < 0.5


def _pairwise_in_block_order(partition, x):
    """The block sums of the contract: each block's atoms gathered in block
    order, one ``np.add.reduceat`` over the block starts per float column (a
    complex value as its two floats), then ``+ 0.0``.  Every block here is
    shorter than ``MOMENT_CHUNK``, so each is one piece."""
    assert partition.sizes.max() <= MOMENT_CHUNK
    kind = complex if np.iscomplexobj(x) else float
    gathered = np.asarray(x, dtype=kind)[partition.atoms]
    columns = gathered.view(float).reshape(len(gathered), -1)
    sums = np.empty((partition.block_count, columns.shape[1]))
    for j in range(columns.shape[1]):
        column = np.ascontiguousarray(columns[:, j])
        sums[:, j] = np.add.reduceat(column, partition.starts) + 0.0
    return sums.view(kind).reshape((partition.block_count,) + gathered.shape[1:])


def _float_columns(x):
    x = np.ascontiguousarray(x, dtype=complex if np.iscomplexobj(x) else float)
    return x.view(float).reshape(len(x), -1)


def _assert_pairwise_sums(partition, x, running):
    """``block_sums(x)`` has the bytes of the pairwise sums in block order,
    and ``running``, a sum of the same values in another order, agrees with
    them to within the roundoff of a running sum, ``d eps`` times the sum of
    the moduli on a block of ``d`` atoms."""
    kind = complex if np.iscomplexobj(x) else float
    expected = _pairwise_in_block_order(partition, x)
    sums = partition.block_sums(x)
    assert sums.dtype == kind and sums.shape == expected.shape
    assert sums.tobytes() == expected.tobytes()
    moduli = _per_column_bincount(partition, np.abs(_float_columns(x)))
    d = partition.sizes.max()
    gap = np.abs(_float_columns(sums) - _float_columns(running))
    assert (gap <= d * np.finfo(float).eps * moduli).all()


def _running_sums_in_atom_order(partition, x):
    """A loop adding atom 0, 1, 2, ... into zeros of the result's kind."""
    kind = complex if np.iscomplexobj(x) else float
    expected = np.zeros((partition.block_count,) + x.shape[1:], dtype=kind)
    for i in range(partition.atom_count):
        expected[partition.block_index[i]] += x[i]
    return expected


def _seven_atoms():
    return make_partition(make_space(np.ones(7)), [[5, 0], [3], [6, 1, 4, 2]])


@pytest.mark.parametrize("shape", [(7,), (7, 3), (7, 1), (7, 2), (7, 4)])
@pytest.mark.parametrize("dtype", [float, complex, int, bool])
def test_block_sums_match_a_loop_in_atom_order(shape, dtype):
    # the bytes of the pairwise sums in block order; the loop in atom
    # order, the contract before pairwise sums, agrees to roundoff
    partition, x = _seven_atoms(), _atom_values(np.random.default_rng(4), shape, dtype)
    _assert_pairwise_sums(partition, x, _running_sums_in_atom_order(partition, x))


@pytest.mark.parametrize(
    "view",
    [
        lambda a: a[:, 2],  # one column of a wider array
        lambda a: a[:, 1:5:2],  # a strided column slice
        lambda a: np.ascontiguousarray(a.T).T,  # a transposed view
    ],
    ids=["column", "column-slice", "transposed"],
)
@pytest.mark.parametrize("dtype", [float, complex, int, bool])
def test_block_sums_of_strided_views_match_a_loop(view, dtype):
    wide = _atom_values(np.random.default_rng(5), (7, 6), dtype)
    x = view(wide)
    assert not x.flags.c_contiguous
    partition = _seven_atoms()
    _assert_pairwise_sums(partition, x, _running_sums_in_atom_order(partition, x))


def _per_column_bincount(partition, x):
    """One ``bincount`` per real column of a contiguous copy: a running sum
    of each block's atoms in atom order."""
    k = partition.block_count
    x = np.ascontiguousarray(x, dtype=complex if np.iscomplexobj(x) else float)
    parts = x.view(float).reshape(len(x), -1)
    sums = np.empty((k, parts.shape[1]))
    for j in range(parts.shape[1]):
        sums[:, j] = np.bincount(partition.block_index, weights=parts[:, j], minlength=k)
    return sums.view(x.dtype).reshape((k,) + x.shape[1:])


@pytest.mark.parametrize("shape", [(100_000,), (100_000, 4)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_block_sums_match_per_column_bincount_on_a_large_shuffled_partition(shape, dtype):
    # blocks of about 100 atoms, past numpy's 8-way unrolled pairwise leaf,
    # gathered from all over the atoms; bincount's running sums agree to
    # roundoff
    rng = np.random.default_rng(6)
    labels = np.concatenate([np.arange(997), rng.integers(0, 997, shape[0] - 997)])
    partition = Partition.from_labels(rng.permutation(labels))
    assert not partition.in_order
    x = _atom_values(rng, shape, dtype)
    _assert_pairwise_sums(partition, x, _per_column_bincount(partition, x))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("trailing", [(), (2,)], ids=["1-d", "2-d"])
@pytest.mark.parametrize(
    "partition",
    [
        Partition.contiguous([2, 4, 3]),
        Partition.from_labels([2, 0, 1, 0, 2, 1, 1, 0, 1]),
        Partition.contiguous([2, MOMENT_CHUNK + 3]),
    ],
    ids=["contiguous", "shuffled", "long-block"],
)
def test_a_block_of_negative_zeros_sums_to_positive_zero(partition, trailing, dtype):
    # reduceat starts each block from its first value, so without the
    # final + 0.0 a block of -0.0 would sum to -0.0
    value = 1.5 - 2j if dtype is complex else 1.5
    x = np.full((partition.atom_count,) + trailing, value, dtype=dtype)
    x[partition.block_index == 1] = complex(-0.0, -0.0) if dtype is complex else -0.0
    assert np.signbit(_float_columns(x)[partition.block_index == 1]).all()
    parts = _float_columns(partition.block_sums(x))
    assert (parts[1] == 0.0).all() and not np.signbit(parts[1]).any()
    assert (parts[0] != 0.0).all()


@pytest.mark.parametrize("shape", [(300,), (300, 4)])
@pytest.mark.parametrize("dtype", [float, complex, int, bool])
@pytest.mark.parametrize(
    "partition",
    [
        Partition.contiguous([1] * 300),
        Partition.from_labels(np.random.default_rng(8).permutation(300)),
    ],
    ids=["contiguous", "shuffled"],
)
def test_one_atom_blocks_sum_to_their_values(partition, dtype, shape):
    # no reduceat when every block is one atom: the bytes of the pairwise
    # sums, and every -0.0 read as +0.0
    x = _atom_values(np.random.default_rng(9), shape, dtype)
    if dtype in (float, complex):
        x[::3] = complex(-0.0, -0.0) if dtype is complex else -0.0
    sums = partition.block_sums(x)
    expected = _pairwise_in_block_order(partition, x)
    assert sums.dtype == expected.dtype and sums.shape == expected.shape
    assert sums.tobytes() == expected.tobytes()
    parts = _float_columns(sums)
    assert not np.signbit(parts[parts == 0.0]).any()
    assert sums.flags.writeable and not np.shares_memory(sums, x)


@pytest.mark.parametrize(
    "make",
    [
        lambda n: Partition.contiguous([n]),
        lambda n: Partition.from_labels(np.zeros(n, dtype=int)),
        lambda n: Partition(np.arange(n)[::-1], [n], n),  # gathered in reverse
    ],
    ids=["contiguous", "from-labels", "reversed"],
)
def test_one_long_block_sums_within_64_eps_of_fsum(make):
    # a running sum of 2**20 tenths is off by about 1.5e-11 relative
    n = 1 << 20
    x = np.full(n, 0.1)
    exact = math.fsum(x)
    total = make(n).block_sums(x)
    assert total.shape == (1,)
    assert abs(total[0] - exact) <= 64 * np.finfo(float).eps * exact
