"""Conditional expectation with respect to a partition.

On an atomic space the conditional expectation of ``f`` is block-constant:
on a block ``B`` it takes the mass-weighted average
``sum_{x in B} f(x) mu(x) / mu(B)``.  That single closed form realizes the
defining averaging identity, so a block's mass and the block sums of
``f mu`` are all the package needs of ``E``: ``block_averages`` gives the
symbols, and ``linop.wct_action`` applies ``w E(u f)`` by the same block
sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .measure import MeasureSpace, Mfunc, Partition, ensure_on_space

__all__ = ["CondExp", "block_averages"]


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


def block_averages(ce: CondExp, f: Mfunc | np.ndarray) -> np.ndarray:
    """Mass-weighted average on each block of ``f``, a function on the
    atoms (complex averages) or the array of its values (real or complex
    averages, as the array is)."""
    if isinstance(f, Mfunc):
        ensure_on_space(f, ce.space)
        f = f.values
    # times the reciprocal mass, which is how a complex array divided by a
    # real one rounds: the real part of a complex average and the average
    # of a real array are then the same double
    return ce.partition.block_sums(f * ce.space.weights) * (1.0 / ce.block_masses)
