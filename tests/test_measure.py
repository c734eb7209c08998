import numpy as np
import pytest

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
    assert np.allclose(grid.x, [0.25, 0.25, 0.75, 0.75])
    assert np.allclose(grid.y, [0.25, 0.75, 0.25, 0.75])


def test_grid_space_single_column():
    grid = grid_space(1, 5)
    assert grid.partition.block_count == 1
    assert np.allclose(grid.x, 0.5)


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
    u2 = grid.y ** (grid.x / 4.0)
    for blk in grid.partition.blocks:
        idx = list(blk)
        x = grid.x[idx[0]]
        measured = (u2[idx] * grid.space.weights[idx]).sum() / (1.0 / 8)
        assert measured == pytest.approx(4.0 / (4.0 + x), rel=1e-3)


def test_ensure_on_space_rejects_length_mismatch():
    space = make_space([0.5, 0.5])
    with pytest.raises(ValidationError, match="3 values"):
        ensure_on_space(Mfunc(np.ones(3)), space)


def test_mfunc_rejects_non_finite():
    with pytest.raises(ValidationError):
        Mfunc(np.array([1.0, np.inf]))


@pytest.mark.parametrize("shape", [(7,), (7, 3)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_block_sums_match_a_loop_in_atom_order(shape, dtype):
    rng = np.random.default_rng(4)
    partition = make_partition(make_space(np.ones(7)), [[5, 0], [3], [6, 1, 4, 2]])
    x = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0)
    expected = np.zeros((3,) + shape[1:], dtype=dtype)
    for i in range(7):  # atom order, as the sums are taken
        expected[partition.block_index[i]] += x[i]
    sums = partition.block_sums(x)
    assert sums.dtype == dtype and sums.shape == expected.shape
    assert sums.tobytes() == expected.tobytes()
