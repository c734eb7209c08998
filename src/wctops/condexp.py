"""Conditional expectation with respect to a partition.

On an atomic space the conditional expectation of ``f`` is block-constant:
on a block ``B`` it takes the mass-weighted average
``sum_{x in B} f(x) mu(x) / mu(B)``.  That single closed form realizes the
defining averaging identity, and in the orthonormalized indicator basis
the same map is an orthogonal projection matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linop import LinOp
from .measure import MeasureSpace, Mfunc, Partition, ensure_on_space

__all__ = ["CondExp", "block_averages", "cond_exp", "cond_exp_matrix"]


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
        masses = np.bincount(
            self.partition.block_index,
            weights=self.space.weights,
            minlength=self.partition.block_count,
        )
        if np.any(masses <= 0.0):
            raise ValidationError("every block must carry positive mass")
        masses.setflags(write=False)
        object.__setattr__(self, "block_masses", masses)


def block_averages(ce: CondExp, f: Mfunc) -> np.ndarray:
    """Mass-weighted average of ``f`` on each block, as a complex array."""
    ensure_on_space(f, ce.space)
    idx, k = ce.partition.block_index, ce.partition.block_count
    fw = f.values * ce.space.weights
    sums = np.empty(k, dtype=complex)
    sums.real = np.bincount(idx, weights=fw.real, minlength=k)
    sums.imag = np.bincount(idx, weights=fw.imag, minlength=k)
    return sums / ce.block_masses


def cond_exp(ce: CondExp, f: Mfunc) -> Mfunc:
    """Conditional expectation of ``f``: the block average, replicated atomwise."""
    avg = block_averages(ce, f)
    return Mfunc(avg[ce.partition.block_index])


def cond_exp_matrix(ce: CondExp) -> LinOp:
    """Matrix of the averaging projection in the orthonormal atom basis.

    Entry ``(x, y)`` is ``sqrt(mu(x) mu(y)) / mu(B)`` when ``x`` and ``y``
    share block ``B`` and zero otherwise, which makes the matrix Hermitian
    and idempotent.
    """
    idx = ce.partition.block_index
    s = np.sqrt(ce.space.weights)
    mat = np.zeros((len(s), len(s)), dtype=complex)
    # computed in place in the real part: the only n x n array is the result
    re = mat.real
    np.multiply.outer(s, s, out=re)
    re /= ce.block_masses[idx][:, None]
    re[idx[:, None] != idx[None, :]] = 0.0
    return LinOp(mat)
