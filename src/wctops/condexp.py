"""Conditional expectation with respect to a partition.

On an atomic space the conditional expectation of ``f`` is block-constant:
on a block ``B`` it takes the mass-weighted average
``sum_{x in B} f(x) mu(x) / mu(B)``.  That single closed form realizes the
defining averaging identity, so a block's mass and the block sums of
``f mu`` are all the package needs of ``E``: ``block_averages`` averages
one function, ``block_moments`` takes the three symbols ``E(uw)``,
``E|u|^2`` and ``E|w|^2`` in one pass, and ``linop.wct_action`` applies
``w E(u f)`` by the same block sums.

Every block sum is ``Partition.block_sums``'s: each block's values in
block order (the order of ``partition.atoms``), summed pairwise by
``np.add.reduceat`` in pieces of at most ``MOMENT_CHUNK`` atoms, a complex
value as its two floats, and the pieces added in order to ``+0.0``.
Pairwise summation bounds the error of a piece of ``d`` atoms by about
``log2(d) eps`` where a running sum allows ``d eps`` (Higham, *Accuracy and
Stability of Numerical Algorithms*, section 4.2).

``block_moments`` holds no atom-length temporary.  It walks the blocks in
groups of whole blocks, or one piece of a longer block, of at most
``MOMENT_CHUNK`` atoms: each group's products ``u w mu``, ``|u|^2 mu`` and
``|w|^2 mu`` go into two group-sized buffers, the two real moments as the
two contiguous rows of one float buffer, and are summed by one
``np.add.reduceat`` per buffer over the group's pieces, along the rows of
the squares.  The ``u w mu`` buffer and its sums are real when ``u`` and
``w`` are, and complex otherwise.  A real ``u`` or ``w`` is squared as it
is, with no ``abs`` pass: ``x x`` is ``|x| |x|`` to the bit.  Every product
has the value of the expression ``block_averages`` evaluates, and a
pairwise sum's tree depends on its length alone, so the three symbols are
the bytes of three ``block_averages`` calls.  For real ``u`` and ``w``
they are also the bytes of the complex path on ``u + 0j`` and ``w + 0j``:
numpy takes a complex product with a real factor as the product with
``x + 0j``, so the real parts are the same real products summed by the
same tree, and ``|x + 0j|`` is ``|x|``; a product's zero may differ in
sign, which the final ``+0.0`` of every block sum removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .measure import MOMENT_CHUNK, MeasureSpace, Mfunc, Partition, ensure_on_space

__all__ = ["CondExp", "block_averages", "block_moments"]


@dataclass(frozen=True, eq=False)
class CondExp:
    """Averaging projection onto the block-constant functions of a partition."""

    space: MeasureSpace
    partition: Partition
    block_masses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.partition.atom_count != self.space.atom_count:
            raise ValidationError(
                f"partition covers {self.partition.atom_count} atoms but the "
                f"space has {self.space.atom_count}"
            )
        masses = self.partition.block_sums(self.space.weights)
        if (masses <= 0.0).any():
            raise ValidationError("every block must carry positive mass")
        masses.setflags(write=False)
        object.__setattr__(self, "block_masses", masses)


def block_averages(ce: CondExp, f: Mfunc | np.ndarray) -> np.ndarray:
    """Mass-weighted average on each block of ``f``, a function on the
    atoms or the array of its values: real averages when the values are
    real, complex ones when they are complex."""
    if isinstance(f, Mfunc):
        ensure_on_space(f, ce.space)
        f = f.values
    # times the reciprocal mass, which is how a complex array divided by a
    # real one rounds: the real part of a complex average and the average
    # of a real array are then the same double
    return ce.partition.block_sums(f * ce.space.weights) * (1.0 / ce.block_masses)


def block_moments(
    ce: CondExp, u: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``E(uw)``, ``E|u|^2`` and ``E|w|^2`` on each block, from the real or
    complex values ``u`` and ``w`` on the atoms, each with the bytes of its
    ``block_averages``; ``E(uw)`` is returned as complex either way.  The
    atoms are taken in groups of at most ``MOMENT_CHUNK``, whole blocks or
    one piece of a longer block, and each group's pieces are summed by one
    ``np.add.reduceat`` per buffer: the ``u w mu`` buffer as float columns,
    the squares as two contiguous rows, ``|u|^2 mu`` and ``|w|^2 mu``."""
    part, mu = ce.partition, ce.space.weights
    n, pieces = mu.size, part.pieces
    size = min(n, MOMENT_CHUNK)
    dtype = np.result_type(u, w, mu)
    # the uw buffer and its sums as float columns, two per complex value,
    # with uw a view of them; the squares as two contiguous rows, |u|^2 mu
    # and |w|^2 mu
    uw_columns = np.empty((size, dtype.itemsize // 8))
    uw_values = uw_columns.view(dtype)[:, 0]
    squares = np.empty((2, size))
    uw_sums = np.empty((pieces.size, uw_columns.shape[1]))
    squares_sums = np.empty((2, pieces.size))
    first = 0
    while first < pieces.size:
        # the group: pieces first .. last - 1, which end within
        # MOMENT_CHUNK atoms of the start of piece first
        start = int(pieces[first])
        if start + size >= n:
            last, stop = pieces.size, n
        else:
            last = int(np.searchsorted(pieces, start + size, side="right")) - 1
            stop = int(pieces[last])
        group = slice(start, stop) if part.in_order else part.atoms[start:stop]
        cu, cw, cmu = u[group], w[group], mu[group]
        m = stop - start
        uw = uw_values[:m]
        np.multiply(cu, cw, out=uw)
        np.multiply(uw, cmu, out=uw)
        for x, x2 in zip((cu, cw), squares[:, :m]):
            np.square(np.abs(x, out=x2) if x.dtype.kind == "c" else x, out=x2)
            np.multiply(x2, cmu, out=x2)
        starts = pieces[first:last] - start
        np.add.reduceat(uw_columns[:m], starts, 0, None, uw_sums[first:last])
        np.add.reduceat(squares[:, :m], starts, 1, None, squares_sums[:, first:last])
        first = last
    inverse = 1.0 / ce.block_masses
    alpha = part.fold(uw_sums).view(dtype)[:, 0] * inverse
    squares_sums = part.fold(squares_sums.T)
    return (
        alpha.astype(complex, copy=False),
        squares_sums[:, 0] * inverse,
        squares_sums[:, 1] * inverse,
    )
