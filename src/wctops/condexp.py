"""Conditional expectation with respect to a partition.

On an atomic space the conditional expectation of ``f`` is block-constant:
on a block ``B`` it takes the mass-weighted average
``sum_{x in B} f(x) mu(x) / mu(B)``.  That single closed form realizes the
defining averaging identity, so a block's mass and the block sums of
``f mu`` are all the package needs of ``E``: ``block_averages`` averages
one function, ``block_moments`` takes the three symbols ``E(uw)``,
``E|u|^2`` and ``E|w|^2`` in one pass, and ``linop.wct_action`` applies
``w E(u f)`` by the same block sums.

``block_moments`` walks the atoms in chunks of ``MOMENT_CHUNK``, so that it
holds no atom-length temporary: each chunk's products ``u w mu``,
``|u|^2 mu`` and ``|w|^2 mu`` go into two chunk-sized buffers and are added
into the block sums by two ordered ``np.add.at`` calls, the two real
moments as the real and imaginary parts of one complex sum.  The ``u w mu``
buffer and its sums are real when ``u`` and ``w`` are, and complex
otherwise.  The chunks run in increasing atom order, every product is the
same expression ``block_averages`` evaluates, and a complex addition adds
its real and imaginary parts as two real additions.  Each block therefore
still adds its atoms in atom order from ``+0.0``, and the three symbols
are the bytes of three ``block_averages`` calls.  For real ``u`` and
``w`` they are also the bytes of the complex path on ``u + 0j`` and ``w +
0j``: numpy takes a complex product with a real factor as the product with
``x + 0j``, so the real parts are the same real products and sums, and
``|x + 0j|`` is ``|x|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .measure import MeasureSpace, Mfunc, Partition, ensure_on_space

__all__ = ["CondExp", "block_averages", "block_moments"]

# Atoms per chunk of ``block_moments``: its two buffers then take at most
# 512 KiB, which stays in a core's L2 cache while the chunk is summed.
MOMENT_CHUNK = 1 << 14


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
    ``block_averages``; ``E(uw)`` is returned as complex either way."""
    mu, bins = ce.space.weights, ce.partition.block_index
    n, k = mu.size, ce.partition.block_count
    size = min(n, MOMENT_CHUNK)
    dtype = np.result_type(u, w, mu)
    uw_buffer = np.empty(size, dtype=dtype)
    squares_buffer = np.empty(size, dtype=complex)
    uw_sums = np.zeros(k, dtype=dtype)
    squares_sums = np.zeros(k, dtype=complex)
    for start in range(0, n, size):
        chunk = slice(start, min(start + size, n))
        cu, cw, cmu = u[chunk], w[chunk], mu[chunk]
        uw, squares = uw_buffer[: cmu.size], squares_buffer[: cmu.size]
        u2, w2 = squares.real, squares.imag
        np.multiply(cu, cw, out=uw)
        np.multiply(uw, cmu, out=uw)
        np.abs(cu, out=u2)
        np.square(u2, out=u2)
        np.multiply(u2, cmu, out=u2)
        np.abs(cw, out=w2)
        np.square(w2, out=w2)
        np.multiply(w2, cmu, out=w2)
        np.add.at(uw_sums, bins[chunk], uw)
        np.add.at(squares_sums, bins[chunk], squares)
    inverse = 1.0 / ce.block_masses
    alpha = (uw_sums * inverse).astype(complex, copy=False)
    return alpha, squares_sums.real * inverse, squares_sums.imag * inverse
