"""Finite atomic measure spaces, partitions, and atom-indexed functions.

Everything downstream operates on a finite list of atoms with strictly
positive masses.  A sub-sigma-algebra of such a space is exactly a
partition of the atoms into blocks, and a measurable function is one
complex value per atom.  Two builders discretize the stock examples:
a truncated geometric sequence space and a midpoint grid on the unit
square.
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
        w = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        if w.size == 0:
            raise ValidationError("a measure space needs at least one atom")
        bad = np.flatnonzero(~np.isfinite(w) | (w <= 0.0))
        if bad.size:
            i = int(bad[0])
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
        sizes = np.array(self.sizes, dtype=np.intp).reshape(-1)
        if not sizes.size:
            raise ValidationError("a partition needs at least one block")
        if n < 1:
            raise ValidationError("partition needs a positive atom count")
        block_of = np.repeat(np.arange(sizes.size), sizes)
        valid = (
            sizes.all()
            and atoms.size == n
            and atoms.min() >= 0
            and atoms.max() < n
            and np.bincount(atoms, minlength=n).min() == 1
        )
        if not valid:
            raise ValidationError(_partition_fault(sizes, atoms, block_of, n))
        owner = np.empty(n, dtype=np.intp)
        owner[atoms] = block_of
        for name, a in (("atoms", atoms), ("sizes", sizes), ("block_index", owner)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

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
        ``(k, r)``, complex when ``x`` is.  One ``bincount`` per column sums
        it in atom order, the real and imaginary parts of a complex column
        apart, so that no temporary is larger than one column.
        """
        k = self.block_count
        x = np.ascontiguousarray(x, dtype=complex if np.iscomplexobj(x) else float)
        parts = x.view(float).reshape(len(x), -1)
        sums = np.empty((k, parts.shape[1]))
        for j in range(parts.shape[1]):
            sums[:, j] = np.bincount(self.block_index, weights=parts[:, j], minlength=k)
        return sums.view(x.dtype).reshape((k,) + x.shape[1:])

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
        v = np.asarray(self.values, dtype=complex).reshape(-1).copy()
        if v.size == 0:
            raise ValidationError("a function needs at least one value")
        if not np.all(np.isfinite(v)):
            i = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ValidationError(f"function value at index {i} is not finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)


def make_space(weights: Sequence[float] | np.ndarray) -> MeasureSpace:
    """Validate a list of atom masses into a MeasureSpace."""
    return MeasureSpace(np.asarray(weights, dtype=float))


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
    x: np.ndarray
    y: np.ndarray


def grid_space(nx: int, ny: int) -> GridSpace:
    """Midpoint-rule discretization of the unit square with column blocks.

    Atom ``(i, j)`` sits at ``((i + 1/2)/nx, (j + 1/2)/ny)`` with weight
    ``1/(nx*ny)`` and linear index ``i*ny + j``.  Blocks collect atoms of
    constant ``x``, so conditional expectation averages over ``y``.  The
    node coordinates are returned so integrands can be evaluated on the
    atoms.
    """
    if nx < 1 or ny < 1:
        raise ValidationError(f"grid dimensions must be positive, got {nx}x{ny}")
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny
    x = np.repeat(xs, ny)
    y = np.tile(ys, nx)
    space = make_space(np.full(nx * ny, 1.0 / (nx * ny)))
    partition = Partition.from_labels(np.repeat(np.arange(nx), ny))
    return GridSpace(space, partition, x, y)
