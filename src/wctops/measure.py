"""Finite atomic measure spaces, partitions, and atom-indexed functions.

Everything downstream operates on a finite list of atoms with strictly
positive masses.  A sub-sigma-algebra of such a space is exactly a
partition of the atoms into blocks, and a measurable function is one
value per atom, real or complex (``Mfunc``).  A partition is read from
blocks of atom indices (``make_partition``) or from the block of each
atom (``Partition.from_labels``), both checked on every atom: a valid one
costs one minimum of the sizes, one maximum of the atom indices read as
unsigned (so that a negative index is out of range, never an atom counted
from the end) and one scatter of the owners, whose unset entries are
counted, and only a fault is named by a walk of the blocks atom by atom.
One whose blocks are runs of consecutive atoms is built from its block
sizes alone (``Partition.contiguous``), where only the sizes need
checking, and its atom-length index arrays are built only when read.  The
weights and a function's values are checked by one ``.all()``, which on a
long array is faster than ``np.count_nonzero``.  A mass repeated by a
stride-0 array is kept as one value, and an array of masses or values that
owns its data and is already read-only is kept with no copy.  Two builders
discretize the stock examples: a truncated geometric sequence space, whose
blocks interleave, and a midpoint grid on the unit square, whose column
blocks are contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

# The longest run of atoms one pairwise sum takes: a block with more atoms
# is summed in pieces of this many, and the pieces' sums are added in
# order.  ``condexp.block_moments`` takes the atoms in groups of whole
# blocks, or one piece, of at most this many; its two buffers then take at
# most 512 KiB, which stays in a core's L2 cache while a group is summed.
MOMENT_CHUNK = 1 << 14

__all__ = [
    "MeasureSpace",
    "Partition",
    "Mfunc",
    "GeometricSpace",
    "GridSpace",
    "make_space",
    "make_partition",
    "singleton_blocks",
    "geometric_space",
    "grid_space",
    "ensure_on_space",
]


# the two dtypes that ``Partition.block_sums`` sums
_FLOAT, _COMPLEX = np.dtype(float), np.dtype(complex)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _kept(raw: object, dtype: type) -> np.ndarray:
    """``raw`` as a one-dimensional array of ``dtype``: ``raw`` itself when it
    is already one, owns its data and is read-only, else a copy."""
    if (
        isinstance(raw, np.ndarray)
        and raw.ndim == 1
        and raw.dtype == dtype
        and raw.flags.owndata
        and not raw.flags.writeable
    ):
        return raw
    return np.array(raw, dtype=dtype).reshape(-1)


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite list of atoms; ``weights[i]`` is the mass of atom ``i``.

    ``weights`` is a read-only float64 copy of the input, each mass checked
    to be finite and positive.  A one-dimensional input of more than one
    entry whose stride is 0, such as ``np.broadcast_to(mass, n)``, holds one
    mass repeated: that one value is checked and copied, and ``weights`` is
    a read-only broadcast of the copy, with no atom-length array.  A
    one-dimensional float64 array that owns its data and is already
    read-only is checked and kept as it is, with no copy: the caller hands
    it over, and must keep no writable view of it (a view made before its
    write flag was cleared stays writable) nor set the flag again.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        raw = self.weights
        if isinstance(raw, np.ndarray) and raw.size > 1 and raw.strides == (0,):
            # one mass repeated: its one-element copy is checked and kept
            checked = _read_only(np.array(raw[:1], dtype=float))
            w = np.broadcast_to(checked, raw.shape)
        else:
            w = checked = _kept(raw, float)
        if w.size == 0:
            raise ValidationError("a measure space needs at least one atom")
        good = (checked > 0.0) & (checked < np.inf)
        if not good.all():
            i = int(np.flatnonzero(~good)[0])
            raise ValidationError(
                f"weight at index {i} must be a finite positive number, got {float(w[i])}"
            )
        object.__setattr__(self, "weights", _read_only(w))

    @property
    def atom_count(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def _partition_fault(sizes: np.ndarray, atoms: np.ndarray, n: int) -> str:
    """The first fault met reading the blocks in order, atom by atom: an
    empty block, an atom out of range or an atom already placed, named with
    its earlier block; past the last block, the first atom no block covers.

    ``atoms`` lists every block's atoms one block after another.
    """
    owner = [-1] * n
    entries = iter(atoms.tolist())
    for b, size in enumerate(sizes.tolist()):
        if not size:
            return f"block {b} is empty"
        for i in islice(entries, size):
            if not 0 <= i < n:
                return f"block {b} contains out-of-range atom index {i} (space has {n} atoms)"
            if owner[i] >= 0:
                return f"atom {i} appears in both block {owner[i]} and block {b}"
            owner[i] = b
    return f"atom {owner.index(-1)} is not covered by any block"


def _block_sizes(sizes: Sequence[int] | np.ndarray) -> tuple[np.ndarray, int]:
    """``sizes`` as an integer array, checked to name at least one block
    and no negative size, and the smallest size."""
    sizes = np.array(sizes, dtype=np.intp).reshape(-1)
    if not sizes.size:
        raise ValidationError("a partition needs at least one block")
    smallest = int(sizes.min())
    if smallest < 0:
        b = int(np.flatnonzero(sizes < 0)[0])
        raise ValidationError(f"block {b} has negative size {int(sizes[b])}")
    return sizes, smallest


@dataclass(frozen=True, eq=False, init=False)
class Partition:
    """Pairwise-disjoint blocks of atom indices covering all ``n`` atoms.

    Block ``b`` holds the next ``sizes[b]`` entries of ``atoms``, in the
    order given, and ``block_index[i]`` is the block owning atom ``i``.
    ``blocks``, the same blocks as tuples of ints, is built on first read.
    ``pieces`` lists where each summed piece starts in ``atoms``: each
    block's start, and every ``MOMENT_CHUNK``-th entry past it in a longer
    block.  ``in_order`` says that ``atoms`` is ``0 .. n-1``, so a block's
    atoms are a slice of an atom array, with no gather.

    ``Partition(atoms, sizes, n)`` checks the blocks atom by atom and keeps
    ``atoms`` and the ``block_index`` it builds on the way.  A partition
    from ``contiguous`` stores only ``sizes``, ``pieces`` and ``n``, and
    builds ``atoms`` and ``block_index`` on first read.  Every array is
    read-only.
    """

    sizes: np.ndarray
    n: int
    pieces: np.ndarray = field(repr=False)
    in_order: bool = field(repr=False)
    # the first piece and the piece count of each block, or None when every
    # block is one piece
    _long_pieces: tuple[np.ndarray, np.ndarray] | None = field(repr=False)
    # every block is one atom, so a block's sum is its one value
    _singletons: bool = field(repr=False)

    def __init__(
        self,
        atoms: Sequence[int] | np.ndarray,
        sizes: Sequence[int] | np.ndarray,
        n: int,
    ) -> None:
        atoms = np.array(atoms, dtype=np.intp).reshape(-1)
        sizes, smallest = _block_sizes(sizes)
        if n < 1:
            raise ValidationError("partition needs a positive atom count")
        block_of = np.arange(sizes.size).repeat(sizes)
        if block_of.size != atoms.size:
            raise ValidationError(
                f"the block sizes add up to {block_of.size} but {atoms.size} "
                f"atoms are listed"
            )
        # read as unsigned, a negative index is past every atom count, so
        # one maximum checks both ends of the range; a negative index must
        # fail here, since the scatter below would wrap it onto an atom
        valid = smallest > 0 and atoms.size == n and atoms.view(np.uintp).max() < n
        if valid:
            # n in-range entries form a permutation iff they cover every
            # atom, so one scatter gives both the coverage and the owners
            owner = np.empty(n, dtype=np.intp)
            owner.fill(-1)
            owner[atoms] = block_of
            valid = not np.count_nonzero(owner < 0)
        if not valid:
            raise ValidationError(_partition_fault(sizes, atoms, n))
        # a permutation is the identity iff it never steps back
        in_order = not np.count_nonzero(atoms[1:] < atoms[:-1])
        self._freeze(sizes, atoms.size, in_order)
        object.__setattr__(self, "atoms", _read_only(atoms))
        object.__setattr__(self, "block_index", _read_only(owner))

    def _freeze(self, sizes: np.ndarray, n: int, in_order: bool) -> None:
        """Store the sizes read-only, with ``n``, the piece starts and
        ``in_order``."""
        pieces = np.add.accumulate(sizes) - sizes
        long_pieces = None
        if n > MOMENT_CHUNK and sizes.max() > MOMENT_CHUNK:
            counts = -(-sizes // MOMENT_CHUNK)
            block_of = np.repeat(np.arange(sizes.size), counts)
            first = np.add.accumulate(counts) - counts
            rank = np.arange(block_of.size) - first[block_of]
            pieces = pieces[block_of] + rank * MOMENT_CHUNK
            long_pieces = (first, counts)
        object.__setattr__(self, "sizes", _read_only(sizes))
        object.__setattr__(self, "pieces", _read_only(pieces))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "in_order", in_order)
        object.__setattr__(self, "_long_pieces", long_pieces)
        # no block is empty, so k blocks cover n atoms one each iff k == n
        object.__setattr__(self, "_singletons", sizes.size == n)

    @classmethod
    def contiguous(cls, sizes: Sequence[int] | np.ndarray) -> "Partition":
        """Block ``b`` holds the next ``sizes[b]`` atoms in atom order.

        Every atom is covered once by construction, so only the sizes are
        checked: a missing, zero or negative size fails as it does in the
        general constructor.  ``atoms`` (``arange(n)``) and ``block_index``
        (each block's number repeated ``sizes[b]`` times) are built on first
        read: the block sums of an in-order partition read neither.
        """
        sizes, smallest = _block_sizes(sizes)
        if smallest == 0:
            raise ValidationError(f"block {int(np.flatnonzero(sizes == 0)[0])} is empty")
        part = object.__new__(cls)
        part._freeze(sizes, int(sizes.sum()), True)
        return part

    @cached_property
    def atoms(self) -> np.ndarray:
        """Every block's atoms, one block after another; built here only for
        a partition from ``contiguous``, as ``arange(n)``."""
        return _read_only(np.arange(self.n, dtype=np.intp))

    @cached_property
    def block_index(self) -> np.ndarray:
        """The block owning each atom; built here only for a partition from
        ``contiguous``."""
        return _read_only(np.repeat(np.arange(self.sizes.size), self.sizes))

    @classmethod
    def from_labels(cls, labels: Sequence[int] | np.ndarray) -> "Partition":
        """Atom ``i`` in block ``labels[i]``, each block's atoms in increasing order."""
        labels = np.asarray(labels).reshape(-1)
        if labels.dtype.kind not in "biu" or (labels.size and labels.min() < 0):
            raise ValidationError("block labels must be non-negative integers")
        return cls(np.argsort(labels, kind="stable"), np.bincount(labels), labels.size)

    @property
    def atom_count(self) -> int:
        return self.n

    @property
    def block_count(self) -> int:
        return int(self.sizes.size)

    @property
    def starts(self) -> np.ndarray:
        """Where each block's atoms begin in ``atoms``."""
        return np.cumsum(self.sizes) - self.sizes

    def block_sums(self, x: np.ndarray) -> np.ndarray:
        """The sum of ``x`` over each block's atoms, along its first axis.

        ``x`` has shape ``(n,)`` or ``(n, r)`` and the result ``(k,)`` or
        ``(k, r)``, complex when ``x`` is and float otherwise.  Each block's
        values are taken in block order, the order of ``atoms``, and one
        ``np.add.reduceat`` over ``pieces`` sums every piece pairwise; a
        complex value is summed as its two floats, so its real part is summed
        as a real array would be.  ``fold`` then adds each block's pieces in
        order to ``+0.0``.  When every block is one atom, a block's sum is
        its value plus ``+0.0``, with no ``reduceat``.
        """
        dtype = x.dtype if type(x) is np.ndarray else None
        if dtype is not _FLOAT and dtype is not _COMPLEX:
            x = np.asarray(x)
            dtype = _COMPLEX if x.dtype.kind == "c" else _FLOAT
            x = np.asarray(x, dtype=dtype)
        if not self.in_order:
            x = x.take(self.atoms, 0)
        if self._singletons:
            return x + 0.0
        if dtype is _FLOAT:
            return self.fold(np.add.reduceat(x, self.pieces, 0))
        columns = np.ascontiguousarray(x).view(float).reshape(len(x), -1)
        sums = self.fold(np.add.reduceat(columns, self.pieces, 0))
        return sums.view(complex).reshape((self.block_count,) + x.shape[1:])

    def fold(self, piece_sums: np.ndarray) -> np.ndarray:
        """Each block's sum from the sums of its pieces (rows of
        ``piece_sums``, one per entry of ``pieces``): its pieces added in
        order to ``+0.0``, so that a block of zeros sums to ``+0.0`` whatever
        their signs."""
        if self._long_pieces is None:
            return piece_sums + 0.0
        first, counts = self._long_pieces
        sums = piece_sums[first] + 0.0
        for j in range(1, int(counts.max())):
            more = np.flatnonzero(counts > j)
            sums[more] += piece_sums[first[more] + j]
        return sums

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        flat = self.atoms.tolist()
        return tuple(
            tuple(flat[start : start + size])
            for start, size in zip(self.starts.tolist(), self.sizes.tolist())
        )


@dataclass(frozen=True, eq=False)
class Mfunc:
    """A function on the atoms: ``values[i]`` is the value at atom ``i``.

    ``values`` is a read-only float64 copy of a bool, integer or float
    input, and a complex128 copy of any other, each checked to be finite.
    A one-dimensional input already of that dtype, which owns its data and
    is read-only, is checked and kept as it is, with no copy: the caller
    hands it over, and must keep no writable view of it (a view made before
    its write flag was cleared stays writable) nor set the flag again.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.values)
        # a real function stays real: one float copy, half the bytes of a
        # complex one, and real arithmetic in every pass over the atoms
        v = _kept(raw, float if raw.dtype.kind in "biuf" else complex)
        if v.size == 0:
            raise ValidationError("a function needs at least one value")
        if not np.isfinite(v).all():
            i = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ValidationError(f"function value at index {i} is not finite")
        object.__setattr__(self, "values", _read_only(v))

    def __len__(self) -> int:
        return int(self.values.size)


def make_space(weights: Sequence[float] | np.ndarray) -> MeasureSpace:
    """Validate a list of atom masses into a MeasureSpace."""
    return MeasureSpace(weights)


def make_partition(
    space: MeasureSpace, blocks: Iterable[Iterable[int]]
) -> Partition:
    """Validate blocks of atom indices into a Partition of ``space``."""
    blocks = [tuple(blk) for blk in blocks]
    sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    atoms = np.fromiter(
        chain.from_iterable(blocks), dtype=np.intp, count=int(sizes.sum())
    )
    return Partition(atoms, sizes, space.atom_count)


def singleton_blocks(atom_count: int) -> tuple[tuple[int], ...]:
    """The finest partition: one block per atom."""
    return tuple((i,) for i in range(atom_count))


def ensure_on_space(f: Mfunc, space: MeasureSpace, name: str = "function") -> None:
    if len(f) != space.atom_count:
        raise ValidationError(
            f"{name} has {len(f)} values but the space has {space.atom_count} atoms"
        )


class GeometricSpace(NamedTuple):
    space: MeasureSpace
    partition: Partition
    n: np.ndarray
    tail_mass: float


def geometric_space(p: float, n_atoms: int) -> GeometricSpace:
    """Truncated geometric probability space with the multiples-of-3 split.

    Atom ``k`` (0-based) represents the integer ``n = k + 1`` and carries
    mass ``p * (1-p)**(n-1)``.  The partition has two blocks: the atoms
    whose ``n`` is a multiple of 3, and all the others.  ``tail_mass`` is
    the probability mass ``(1-p)**n_atoms`` lost to truncation; it is
    reported rather than silently absorbed.
    """
    if not (0.0 < float(p) < 1.0):
        raise ValidationError(f"p must lie strictly between 0 and 1, got {p!r}")
    if n_atoms < 3:
        raise ValidationError(
            f"need at least 3 atoms so both blocks are non-empty, got {n_atoms}"
        )
    q = 1.0 - p
    n = np.arange(1, n_atoms + 1)
    masses = p * q ** (n - 1.0)
    if not masses.all():
        raise ValidationError(
            f"with p={p:g} the masses p*(1-p)**(n-1) underflow to 0 past "
            f"n_atoms={int(np.argmin(masses > 0.0))}; got n_atoms={n_atoms}"
        )
    space = make_space(masses)
    return GeometricSpace(
        space, Partition.from_labels(n % 3 != 0), n, float(q**n_atoms)
    )


class GridSpace(NamedTuple):
    space: MeasureSpace
    partition: Partition
    xs: np.ndarray
    ys: np.ndarray


def grid_space(nx: int, ny: int) -> GridSpace:
    """Midpoint-rule discretization of the unit square with column blocks.

    Atom ``(i, j)`` has weight ``1/(nx*ny)``, linear index ``i*ny + j`` and
    node ``(xs[i], ys[j])``, with ``xs = (arange(nx) + 1/2)/nx`` and
    ``ys = (arange(ny) + 1/2)/ny``.  Blocks collect atoms of constant
    ``x``, so conditional expectation averages over ``y``.  The two axes
    are returned, not atom-length copies: an integrand of ``xs[:, None]``
    and ``ys`` is evaluated on the atoms, in atom order.
    """
    if nx < 1 or ny < 1:
        raise ValidationError(f"grid dimensions must be positive, got {nx}x{ny}")
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny
    n = nx * ny
    # the space keeps the broadcast mass as one value, and the partition
    # builds its atom arrays only if they are read
    space = make_space(np.broadcast_to(1.0 / n, n))
    # column i holds atoms i*ny .. i*ny + ny - 1, already in atom order
    partition = Partition.contiguous(np.full(nx, ny))
    return GridSpace(space, partition, xs, ys)
