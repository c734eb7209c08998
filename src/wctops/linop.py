"""Dense complex operator algebra in the orthonormalized atom basis.

The basis vector for atom ``x`` is the indicator of ``x`` scaled by
``mu(x)**-0.5``.  In these coordinates multiplication operators are
diagonal, the Hilbert-space adjoint is the plain conjugate transpose,
and the Euclidean inner product of coordinate vectors equals the
weighted inner product of the underlying functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericError, ValidationError
from .measure import MeasureSpace, Mfunc, Partition, ensure_on_space

if TYPE_CHECKING:
    from .condexp import CondExp

__all__ = [
    "LinOp",
    "identity",
    "mult_op",
    "wct_op",
    "adjoint",
    "power",
    "op_norm",
    "spectrum",
    "hermitian_eig",
    "hermitian_power",
    "is_psd",
]


@dataclass(frozen=True, eq=False)
class LinOp:
    """A bounded operator as a square complex matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValidationError(f"operator matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValidationError("operator matrix contains non-finite entries")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    def _same_dim(self, other: "LinOp") -> None:
        if self.dim != other.dim:
            raise ValidationError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "LinOp") -> "LinOp":
        self._same_dim(other)
        return LinOp(self.entries + other.entries)

    def __sub__(self, other: "LinOp") -> "LinOp":
        self._same_dim(other)
        return LinOp(self.entries - other.entries)

    def __neg__(self) -> "LinOp":
        return LinOp(-self.entries)

    def __matmul__(self, other: "LinOp") -> "LinOp":
        self._same_dim(other)
        return LinOp(self.entries @ other.entries)

    def __mul__(self, scalar: complex) -> "LinOp":
        return LinOp(self.entries * complex(scalar))

    __rmul__ = __mul__


def identity(dim: int) -> LinOp:
    return LinOp(np.eye(dim, dtype=complex))


def mult_op(space: MeasureSpace, g: Mfunc) -> LinOp:
    """Multiplication by ``g``: diagonal in the orthonormal atom basis."""
    ensure_on_space(g, space, "multiplier")
    return LinOp(np.diag(g.values))


def wct_op(ce: "CondExp", w: Mfunc, u: Mfunc) -> LinOp:
    """The weighted conditional type operator ``f -> w * E(u f)``.

    Its matrix is ``diag(w) @ E @ diag(u)`` with ``E`` the conditional
    expectation projection.
    """
    ensure_on_space(w, ce.space, "w")
    ensure_on_space(u, ce.space, "u")
    from .condexp import cond_exp_matrix  # deferred: condexp builds on this module

    e = cond_exp_matrix(ce).entries
    return LinOp((w.values[:, None] * e) * u.values[None, :])


def adjoint(T: LinOp) -> LinOp:
    return LinOp(T.entries.conj().T)


def power(T: LinOp, k: int) -> LinOp:
    if k < 0:
        raise ValidationError(f"power exponent must be non-negative, got {k}")
    return LinOp(np.linalg.matrix_power(T.entries, k))


def op_norm(T: LinOp) -> float:
    """Largest singular value, via the Hermitian eigenproblem of ``T* T``."""
    h = T.entries.conj().T @ T.entries
    evals, _ = _eigh_stack(_one_block(0.5 * (h + h.conj().T)))
    return float(np.sqrt(max(float(evals[0].max()), 0.0)))


def spectrum(T: LinOp) -> np.ndarray:
    """Eigenvalues with multiplicity, sorted by (real, imaginary) part."""
    return _eigvals_stack(_one_block(T.entries))


def hermitian_eig(A: LinOp) -> tuple[np.ndarray, LinOp]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and the unitary matrix of
    eigenvectors.  Hermitian symmetry is checked relative to the entry
    scale, and the reconstruction ``V diag(lam) V*`` is verified against
    the input.
    """
    evals, vecs = _eigh_stack(_one_block(A.entries))
    return evals[0][0, 0], LinOp(vecs[0][0, 0])


def hermitian_power(A: LinOp, p: float) -> LinOp:
    """``A**p`` for Hermitian positive semidefinite ``A`` via functional calculus.

    Eigenvalues in the roundoff band below zero are clamped to zero;
    genuinely negative eigenvalues are rejected.
    """
    if p <= 0:
        raise ValidationError(f"exponent must be positive, got {p}")
    evals, vecs = _eigh_stack(_one_block(A.entries))
    return LinOp(_power_stack(evals, vecs, p)[0][0, 0])


def is_psd(A: LinOp, tol: float) -> bool:
    """True when every eigenvalue of the Hermitian matrix ``A`` is >= -tol."""
    evals, _ = _eigh_stack(_one_block(A.entries))
    return bool(evals[0].min() >= -tol)


# ---------------------------------------------------------------------------
# Stack kernels
#
# A stack is a list of arrays of shape ``(r, k, d, d)``, one per block size
# ``d``: ``a[i, j]`` is diagonal block ``j`` of operand ``i``.  All operands
# of a stack are block-diagonal in one block structure, so sums, products
# and adjoints act block by block, and eigenvalues are the union of the
# blocks' eigenvalues.  Every check reduces over all blocks of an operand,
# so its threshold is the one the whole block-diagonal matrix would get.
# A whole matrix ``a`` is the one-block stack ``[a[None, None]]``.
#
# The stack of ``T f = w E(u f)`` over a partition is smaller still: each
# diagonal block is rank one, ``a_b c_b*``, so ``T`` and ``T*`` vanish on
# the complement of ``span{a_b, c_b}`` and map that span into itself.
# ``_block_stack`` rotates each block of size d >= 3 onto that span and
# keeps its 2x2 core plus d - 2 zero 1x1 blocks.  Every operand built from
# ``T`` is block-diagonal in these blocks too, so this is exact: the zero
# blocks contribute ``B_m = (-1)^m``, zero for ``T* B_m T``, the commutator
# and the p-powers, and the zeros of the spectrum.  The zero blocks are all
# alike, and every norm, residual and check is a maximum, a minimum or a
# sum of squares over blocks, so one zero block stands for all of them; the
# stack records how many zeros of the spectrum that leaves out.


def _one_block(a: np.ndarray) -> list[np.ndarray]:
    return [a[None, None]]


def _block_stack(
    a: np.ndarray, partition: Partition
) -> tuple[list[np.ndarray], int]:
    """The diagonal blocks of ``a``, each cut to its rank-one core, as a
    one-operand stack, and the number of zero eigenvalues the stack leaves
    out (see ``_rank_one_cores``).

    Raises NumericError unless every entry outside the partition's blocks
    is exactly zero, and unless every block is rank one.
    """
    if partition.atom_count != len(a):
        raise ValidationError(
            f"partition covers {partition.atom_count} atoms but the operator "
            f"has dimension {len(a)}"
        )
    sizes, starts = partition.sizes, partition.starts
    blocks = []
    for d in np.unique(sizes).tolist():
        idx = partition.atoms[starts[sizes == d][:, None] + np.arange(d)]
        blocks.append(a[idx[:, :, None], idx[:, None, :]])
    outside = np.count_nonzero(a) - sum(np.count_nonzero(b) for b in blocks)
    if outside:
        raise NumericError(
            f"operator has {outside} nonzero entries outside the diagonal "
            f"blocks of its partition"
        )
    return _rank_one_cores(blocks)


def _rank_one_cores(blocks: list[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Each block of size d >= 3 as its 2x2 core and d - 2 zero 1x1 blocks.

    ``blocks`` holds arrays of shape ``(k, d, d)``.  For a rank-one block
    ``A = a c*`` the unitary ``Q`` whose first two columns span ``A``'s
    largest column (parallel to ``a``) and its largest conjugated row
    (parallel to ``c``) makes ``Q* A Q`` zero outside its leading 2x2
    corner, which is kept.  Raises NumericError when an entry outside the
    corner exceeds 1e-10 times the largest entry of all blocks.

    All the zero 1x1 blocks are kept as one zero block of size 2 (of size 1
    when there is only one), which adds no block size to a stack that has
    2x2 cores; the number of zeros this leaves out is returned.
    """
    scale = max(float(np.abs(b).max()) for b in blocks)
    by_size = {b.shape[-1]: [b] for b in blocks if b.shape[-1] < 3}
    zeros, worst = 0, 0.0
    for b in blocks:
        k, d, _ = b.shape
        if d < 3:
            continue
        mag = np.abs(b) ** 2
        col = np.argmax(mag.sum(axis=-2), axis=-1)
        row = np.argmax(mag.sum(axis=-1), axis=-1)
        ks = np.arange(k)
        basis = np.stack([b[ks, :, col], b[ks, row, :].conj()], axis=-1)
        q, _ = np.linalg.qr(basis, mode="complete")
        rot = _adj(q) @ b @ q
        by_size.setdefault(2, []).append(rot[:, :2, :2].copy())
        rot[:, :2, :2] = 0.0
        worst = max(worst, float(np.abs(rot).max()))
        zeros += k * (d - 2)
    if worst > 1e-10 * scale:
        raise NumericError(
            f"operator block is not rank one: entry {worst:.3e} outside its "
            f"2x2 core at scale {scale:.3e}"
        )
    kept = min(zeros, 2)
    if kept:
        by_size.setdefault(kept, []).append(np.zeros((1, kept, kept), dtype=complex))
    return [np.concatenate(by_size[d])[None] for d in sorted(by_size)], zeros - kept


def _adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack array."""
    return a.conj().swapaxes(-1, -2)


def _per_operand(arrays: list[np.ndarray], reduce=np.max) -> np.ndarray:
    """``reduce`` of each operand over all its entries in all arrays: shape ``(r,)``."""
    return reduce([reduce(a, axis=tuple(range(1, a.ndim))) for a in arrays], axis=0)


def _eigh_stack(
    stack: list[np.ndarray],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Eigendecomposition of every Hermitian operand of a stack.

    Returns the ascending eigenvalues ``(r, k, d)`` and the eigenvectors
    ``(r, k, d, d)`` of each array.  Hermitian symmetry is checked relative
    to each operand's entry scale, and the reconstruction
    ``V diag(lam) V*`` relative to its largest eigenvalue modulus.
    """
    scale = np.maximum(1.0, _per_operand([np.abs(a) for a in stack]))
    asym = _per_operand([np.abs(a - _adj(a)) for a in stack])
    if np.any(asym > 1e-10 * scale):
        i = int(np.argmax(asym / scale))
        raise ValidationError(
            f"matrix is not Hermitian: max asymmetry {asym[i]:.3e} "
            f"at scale {scale[i]:.3e}"
        )
    herm = [0.5 * (a + _adj(a)) for a in stack]
    try:
        pairs = [np.linalg.eigh(h) for h in herm]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    evals = [e for e, _ in pairs]
    vecs = [v for _, v in pairs]
    # spectral norm of a Hermitian matrix is its largest |eigenvalue|; the
    # Frobenius norm bounds the spectral norm of the error from above
    norm_a = _per_operand([np.abs(e) for e in evals])
    err = np.sqrt(
        _per_operand(
            [np.abs(h - _from_eig(e, v)) ** 2 for h, e, v in zip(herm, evals, vecs)],
            np.sum,
        )
    )
    if np.any(err > 1e-9 * np.maximum(1.0, norm_a)):
        raise NumericError(
            f"eigendecomposition reconstruction error {err.max():.3e} exceeds tolerance"
        )
    return evals, vecs


def _from_eig(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``V diag(lam) V*`` for every matrix in a stack array."""
    return (vecs * evals[..., None, :]) @ _adj(vecs)


def _power_stack(
    evals: list[np.ndarray], vecs: list[np.ndarray], p: float
) -> list[np.ndarray]:
    """``A**p`` of every positive semidefinite operand, from its eigendecomposition.

    Each operand's eigenvalues in its roundoff band below zero are clamped
    to zero; a genuinely negative eigenvalue is rejected.
    """
    band = 1e-10 * np.maximum(1.0, _per_operand([np.abs(e) for e in evals]))
    smallest = -_per_operand([-e for e in evals])
    if np.any(smallest < -band):
        raise ValidationError(
            f"matrix is not positive semidefinite: eigenvalue {smallest.min():.3e}"
        )
    # the whole roundoff band collapses to an exact zero so that fractional
    # powers cannot amplify kernel perturbations
    cut = band[:, None, None]
    return [_from_eig(np.where(e < cut, 0.0, e) ** p, v) for e, v in zip(evals, vecs)]


def _eigvals_stack(stack: list[np.ndarray], zeros: int = 0) -> np.ndarray:
    """Eigenvalues of a one-operand stack with multiplicity, and ``zeros``
    more exact zeros, sorted by (real, imaginary) part."""
    try:
        ev = np.concatenate(
            [np.linalg.eigvals(a).ravel() for a in stack] + [np.zeros(zeros, complex)]
        )
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]
