"""Finite atomic measure spaces, partitions, and atom-indexed functions.

Everything downstream operates on a finite list of atoms with strictly
positive masses.  A sub-sigma-algebra of such a space is exactly a
partition of the atoms into blocks, and a measurable function is one
complex value per atom.  A partition is read from blocks of atom
indices (``make_partition``) or from the block of each atom
(``Partition.from_labels``), both checked atom by atom; one whose blocks
are runs of consecutive atoms is built from its block sizes alone
(``Partition.contiguous``), where only the sizes need checking.  Two
builders discretize the stock examples: a truncated geometric sequence
space, whose blocks interleave, and a midpoint grid on the unit square,
whose column blocks are contiguous.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

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


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite list of atoms; ``weights[i]`` is the mass of atom ``i``."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float).reshape(-1)
        if w.size == 0:
            raise ValidationError("a measure space needs at least one atom")
        good = (w > 0.0) & (w < np.inf)
        if not good.all():
            i = int(np.flatnonzero(~good)[0])
            raise ValidationError(
                f"weight at index {i} must be a finite positive number, got {float(w[i])}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def atom_count(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def _partition_fault(
    sizes: np.ndarray, atoms: np.ndarray, block_of: np.ndarray, n: int
) -> str:
    """The first fault met reading the blocks in order, atom by atom.

    ``atoms`` lists every block's atoms one block after another, and
    ``block_of`` gives the block of each entry.  An empty block is met
    before the atom that follows it; an atom missing from every block is
    only known once all blocks are read.
    """
    faults = []
    starts = np.cumsum(sizes) - sizes
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        b = int(empty[0])
        faults.append((int(starts[b]), 0, f"block {b} is empty"))
    inside = (atoms >= 0) & (atoms < n)
    if not inside.all():
        p = int(np.flatnonzero(~inside)[0])
        faults.append(
            (
                p,
                1,
                f"block {int(block_of[p])} contains out-of-range atom index "
                f"{int(atoms[p])} (space has {n} atoms)",
            )
        )
    positions = np.flatnonzero(inside)
    _, first = np.unique(atoms[positions], return_index=True)
    repeated = np.ones(positions.size, dtype=bool)
    repeated[first] = False
    if repeated.any():
        p = int(positions[np.flatnonzero(repeated)[0]])
        i = int(atoms[p])
        earlier = int(block_of[np.flatnonzero(atoms == i)[0]])
        faults.append(
            (p, 1, f"atom {i} appears in both block {earlier} and block {int(block_of[p])}")
        )
    if faults:
        return min(faults)[2]
    covered = np.zeros(n, dtype=bool)
    covered[atoms] = True
    return f"atom {int(np.flatnonzero(~covered)[0])} is not covered by any block"


def _block_sizes(sizes: Sequence[int] | np.ndarray) -> np.ndarray:
    """``sizes`` as an integer array, checked to name at least one block
    and no negative size."""
    sizes = np.array(sizes, dtype=np.intp).reshape(-1)
    if not sizes.size:
        raise ValidationError("a partition needs at least one block")
    if sizes.min() < 0:
        b = int(np.flatnonzero(sizes < 0)[0])
        raise ValidationError(f"block {b} has negative size {int(sizes[b])}")
    return sizes


@dataclass(frozen=True, eq=False)
class Partition:
    """Pairwise-disjoint blocks of atom indices covering all ``n`` atoms.

    Block ``b`` holds the next ``sizes[b]`` entries of ``atoms``, in the
    order given, and ``block_index[i]`` is the block owning atom ``i``.
    ``blocks``, the same blocks as tuples of ints, is built on first read.
    """

    atoms: np.ndarray
    sizes: np.ndarray
    n: InitVar[int]
    block_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, n: int) -> None:
        atoms = np.array(self.atoms, dtype=np.intp).reshape(-1)
        sizes = _block_sizes(self.sizes)
        if n < 1:
            raise ValidationError("partition needs a positive atom count")
        smallest = sizes.min()
        block_of = np.repeat(np.arange(sizes.size), sizes)
        if block_of.size != atoms.size:
            raise ValidationError(
                f"the block sizes add up to {block_of.size} but {atoms.size} "
                f"atoms are listed"
            )
        valid = (
            smallest > 0
            and atoms.size == n
            and atoms.min() >= 0
            and atoms.max() < n
        )
        if valid:
            # n in-range entries form a permutation iff they cover every
            # atom, so one scatter gives both the coverage and the owners
            owner = np.full(n, -1, dtype=np.intp)
            owner[atoms] = block_of
            valid = owner.min() >= 0
        if not valid:
            raise ValidationError(_partition_fault(sizes, atoms, block_of, n))
        self._freeze(atoms, sizes, owner)

    def _freeze(
        self, atoms: np.ndarray, sizes: np.ndarray, block_index: np.ndarray
    ) -> None:
        """Store the three arrays read-only."""
        for name, a in (("atoms", atoms), ("sizes", sizes), ("block_index", block_index)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def contiguous(cls, sizes: Sequence[int] | np.ndarray) -> "Partition":
        """Block ``b`` holds the next ``sizes[b]`` atoms in atom order.

        ``atoms`` is ``arange(n)`` and ``block_index`` repeats each block's
        number ``sizes[b]`` times, so every atom is covered once by
        construction and only the sizes are checked: a missing, zero or
        negative size fails as it does in the general constructor.
        """
        sizes = _block_sizes(sizes)
        if sizes.min() == 0:
            raise ValidationError(f"block {int(np.flatnonzero(sizes == 0)[0])} is empty")
        part = object.__new__(cls)
        part._freeze(
            np.arange(sizes.sum(), dtype=np.intp),
            sizes,
            np.repeat(np.arange(sizes.size), sizes),
        )
        return part

    @classmethod
    def from_labels(cls, labels: Sequence[int] | np.ndarray) -> "Partition":
        """Atom ``i`` in block ``labels[i]``, each block's atoms in increasing order."""
        labels = np.asarray(labels).reshape(-1)
        if labels.dtype.kind not in "biu" or (labels.size and labels.min() < 0):
            raise ValidationError("block labels must be non-negative integers")
        return cls(np.argsort(labels, kind="stable"), np.bincount(labels), labels.size)

    @property
    def atom_count(self) -> int:
        return int(self.block_index.size)

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
        ``(k, r)``, complex when ``x`` is and float otherwise.  One ordered
        ``np.add.at`` into zeros takes every sum, so each block adds its
        atoms' values in increasing atom order starting from ``+0.0``; a
        2-D ``x`` is flattened and entry ``(i, j)`` goes to bin
        ``block_index[i] * r + j`` of the flattened ``(k, r)`` result.
        """
        x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
        bins = self.block_index
        if x.ndim == 2:
            r = x.shape[1]
            bins = (bins[:, None] * r + np.arange(r)).reshape(-1)
        sums = np.zeros((self.block_count,) + x.shape[1:], dtype=x.dtype)
        np.add.at(sums.reshape(-1), bins, x.reshape(-1))
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
    """A function on the atoms: ``values[i]`` is the value at atom ``i``."""

    values: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.values)
        # a real input is tested before its complex copy, at half the bytes
        real = raw.dtype.kind in "biuf"
        v = raw.reshape(-1) if real else np.array(raw, dtype=complex).reshape(-1)
        if v.size == 0:
            raise ValidationError("a function needs at least one value")
        if not np.isfinite(v).all():
            i = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ValidationError(f"function value at index {i} is not finite")
        if real:
            v = v.astype(complex)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

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
    # the space's copy of the broadcast mass is the one weight array
    space = make_space(np.broadcast_to(1.0 / n, n))
    # column i holds atoms i*ny .. i*ny + ny - 1, already in atom order
    partition = Partition.contiguous(np.full(nx, ny))
    return GridSpace(space, partition, xs, ys)
