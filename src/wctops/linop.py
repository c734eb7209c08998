"""Operator algebra in the orthonormalized atom basis.

The basis vector for atom ``x`` is the indicator of ``x`` scaled by
``mu(x)**-0.5``.  In these coordinates multiplication operators are
diagonal, the Hilbert-space adjoint is the plain conjugate transpose,
and the Euclidean inner product of coordinate vectors equals the
weighted inner product of the underlying functions.

An operator is given by its action on vectors (``Action``).  ``wct_action``
applies ``T f = w E(u f)`` and its adjoint in O(n) by segment sums over the
partition blocks, and the oracle reads each block's rank-one core from
three such matvecs (see the stack kernels below), so no ``n x n`` matrix
is ever built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .measure import Mfunc, Partition, ensure_on_space

if TYPE_CHECKING:
    from .condexp import CondExp

__all__ = ["Action", "wct_action"]

# Seed of the random probes that read the rank-one cores: fixed, so that
# every report is the same on every run.
_PROBE_SEED = np.random.SeedSequence(20250923)


class Action(NamedTuple):
    """An operator given by its action on vectors: ``apply(x)`` is ``T x``
    and ``apply_adj(x)`` is ``T* x`` for every column of an ``(n, r)``
    array ``x``."""

    apply: Callable[[np.ndarray], np.ndarray]
    apply_adj: Callable[[np.ndarray], np.ndarray]


def wct_action(ce: "CondExp", w: Mfunc, u: Mfunc) -> Action:
    """The action of ``f -> w * E(u f)`` and of its adjoint, in O(n).

    In the orthonormal atom basis ``(T x)_i = l_i sum_{j in B} r_j x_j``
    over the block ``B`` of atom ``i``, with ``l = sqrt(mu) w`` and
    ``r = sqrt(mu) u / mu(B)``; ``T*`` swaps ``l`` and ``r`` and conjugates
    both.  Each product is one segment sum per block.
    """
    ensure_on_space(w, ce.space, "w")
    ensure_on_space(u, ce.space, "u")
    idx, block_sums = ce.partition.block_index, ce.partition.block_sums
    root = np.sqrt(ce.space.weights)[:, None]
    left = root * w.values[:, None]
    right = root * u.values[:, None] / ce.block_masses[idx][:, None]
    left_adj, right_adj = right.conj(), left.conj()
    return Action(
        lambda x: left * block_sums(right * x)[idx],
        lambda x: left_adj * block_sums(right_adj * x)[idx],
    )


# ---------------------------------------------------------------------------
# Stack kernels
#
# A stack is one array of shape ``(r, k, d, d)``: ``a[i, j]`` is diagonal
# block ``j`` of operand ``i``.  All operands of a stack are block-diagonal
# in one structure of k blocks of size d, so sums, products and adjoints act
# block by block, and eigenvalues are the union of the blocks' eigenvalues.
# Every check reduces over all blocks of an operand, so its threshold is the
# one the whole block-diagonal matrix would get; operands stacked along the
# first axis keep their own checks, so any set of Hermitian operands of one
# stack is solved in one ``eigh`` call.  ``classify.DefectOracle`` makes two
# such calls per report: one for the defects, the sandwiched defects,
# ``T* T``, ``T T*`` and the commutator, and one for the p-power differences
# built from the first.
#
# The stack of ``T f = w E(u f)`` over a partition is smaller still: each
# diagonal block is rank one, ``a_b c_b*``, so ``T`` and ``T*`` vanish on
# the complement of ``span{a_b, c_b}`` and map that span into itself.
# ``_rank_one_cores`` reads ``a_b`` and ``c_b`` from ``T f`` and ``T* g``
# for random probes f and g, checks the rank-one model on a third probe h,
# and keeps each block as its 2x2 core ``[[lam, kappa], [0, 0]]`` in an
# orthonormal basis of that span; a singleton's value lam is padded to
# ``[[lam, 0], [0, 0]]``.  Every operand built from ``T`` is block-diagonal
# in the cores and the lanes cut or added, and this is exact because those
# lanes are kernel directions of ``T`` and ``T*``: each adds ``(-1)^m`` to
# ``B_m``, and zero to ``T* B_m T``, ``T* T``, ``T T*``, the commutator, the
# p-power differences and every symmetry and reconstruction residual.  A
# 2x2 core has rank at most one, so it already has a kernel direction:
# ``B_m`` already has norm at least one on the core (its Rayleigh quotient
# there is ``(-1)^m``), and the commutator and every p-power difference are
# trace-zero on each core, so their smallest eigenvalue is already at most
# zero.  No norm, negative part, scale or check moves; the spectrum gains
# the n - 2k zeros of the cut lanes, or loses 2k - n zeros of the padding
# when that is negative.  An operator of singleton blocks only keeps its
# 1x1 stack: it may be injective (a unitary), and a kernel lane would give
# it a spurious ``|B_m| = 1``.


def _rank_one_cores(T: Action, partition: Partition) -> tuple[np.ndarray, int]:
    """The core of every rank-one block of ``T`` as a one-operand stack, read
    from three matvecs, and the number of zero eigenvalues the stack leaves
    out (negative when its padding adds zeros).

    On block b, ``T_b = a c*``, so for probes f and g the block parts
    ``y = (T f)_b = a (c* f_b)`` and ``z = (T* g)_b = c (a* g_b)`` give
    ``T_b = y z* / s`` with ``s = z* f_b``.  In the orthonormal basis
    ``q1 = y / |y|``, ``q2 = r / |r|`` of ``span{y, z}``, where ``r = z -
    q1 (q1* z)``, ``T_b`` is ``[[z* y / s, |y| |r| / s], [0, 0]]``; ``|r|``
    is summed from the residual vector itself, since ``|z|^2 - |q1* z|^2``
    cancels to roundoff of order ``sqrt(eps) |z|`` where ``c`` is parallel
    to ``a``.  A singleton block is its value ``z* y / s``, padded to
    ``[[z* y / s, 0], [0, 0]]`` unless every block is a singleton, when the
    stack is ``(1, k, 1, 1)``.  A third probe h checks the model
    (Freivalds): NumericError unless ``T h`` and ``sum_b y (z* h_b) / s``
    agree to 1e-10 of ``|T| |h|``, with ``|T|`` the largest block norm
    ``|y| |z| / |s|``.  The probes come from a generator with a fixed seed,
    so the cores are the same on every run.
    """
    n, k, idx = partition.atom_count, partition.block_count, partition.block_index
    # complex Gaussian columns f, h and g
    rng = np.random.Generator(np.random.PCG64(_PROBE_SEED))
    probes = rng.standard_normal((n, 6)).view(complex)
    f, h = probes[:, 0], probes[:, 1]
    y, th = T.apply(probes[:, :2]).T
    z = T.apply_adj(probes[:, 2:])[:, 0]
    zc = z.conj()
    products = np.empty((n, 4), dtype=complex)
    for j, (left, right) in enumerate(((y.conj(), y), (zc, y), (zc, f), (zc, h))):
        np.multiply(left, right, out=products[:, j])
    yy, zy, s, zh = partition.block_sums(products).T
    yy = yy.real
    # a zero block has y = z = 0, so s = 0 and z* y = 0: its core is zero
    inv_s = 1.0 / np.where(s != 0, s, np.inf)
    proj = zy.conj() / np.where(yy > 0, yy, 1.0)
    rr = partition.block_sums(np.abs(z - y * proj[idx]) ** 2)
    value, corner = zy * inv_s, np.sqrt(yy * rr) * inv_s

    # the norm of a rank-one block, |y| |z| / |s|, is that of its core
    scale = float(np.sqrt((np.abs(value) ** 2 + np.abs(corner) ** 2).max()))
    miss = th - y * (zh * inv_s)[idx]
    residual = float(np.sqrt(np.vdot(miss, miss).real))
    # negated, so that a NaN residual (an overflow in the matvecs) fails too
    if not residual <= 1e-10 * scale * float(np.sqrt(np.vdot(h, h).real)):
        fault = "is not rank one" if np.isfinite(residual) else "overflows"
        raise NumericError(
            f"operator block {fault}: probe residual {residual:.3e} "
            f"at scale {scale:.3e}"
        )

    single = partition.sizes == 1
    if single.all():
        return value[None, :, None, None], 0
    cores = np.zeros((1, k, 2, 2), dtype=complex)
    cores[0, :, 0, 0] = value
    # a singleton's corner is the roundoff of z - q1 (q1* z): pad it exactly
    cores[0, :, 0, 1] = np.where(single, 0.0, corner)
    return cores, n - 2 * k


def _adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack array."""
    return a.conj().swapaxes(-1, -2)


def _per_operand(a: np.ndarray, reduce=np.max) -> np.ndarray:
    """``reduce`` of each operand of a stack over all its entries: shape ``(r,)``."""
    return reduce(a, axis=tuple(range(1, a.ndim)))


def _eigh_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of every Hermitian operand of a stack, in one call.

    Returns the ascending eigenvalues ``(r, k, d)`` and the eigenvectors
    ``(r, k, d, d)``.  An operand with a non-finite entry (an overflow in
    the terms that built it) is a NumericError.  Hermitian symmetry is
    checked relative to each operand's entry scale, and the reconstruction
    ``V diag(lam) V*`` relative to its largest eigenvalue modulus.
    """
    adj = _adj(a)
    scale = np.maximum(1.0, _per_operand(np.abs(a)))
    if not np.isfinite(scale).all():
        raise NumericError("matrix has non-finite entries: the terms that built it overflow")
    asym = _per_operand(np.abs(a - adj))
    if np.any(asym > 1e-10 * scale):
        i = int(np.argmax(asym / scale))
        raise ValidationError(
            f"matrix is not Hermitian: max asymmetry {asym[i]:.3e} "
            f"at scale {scale[i]:.3e}"
        )
    herm = 0.5 * (a + adj)
    try:
        evals, vecs = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    # spectral norm of a Hermitian matrix is its largest |eigenvalue|; the
    # Frobenius norm bounds the spectral norm of the error from above
    norm_a = _per_operand(np.abs(evals))
    err = np.sqrt(_per_operand(np.abs(herm - _from_eig(evals, vecs)) ** 2, np.sum))
    if np.any(err > 1e-9 * np.maximum(1.0, norm_a)):
        raise NumericError(
            f"eigendecomposition reconstruction error {err.max():.3e} exceeds tolerance"
        )
    return evals, vecs


def _from_eig(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``V diag(lam) V*`` for every matrix in a stack array."""
    return (vecs * evals[..., None, :]) @ _adj(vecs)


def _power_stack(
    evals: np.ndarray, vecs: np.ndarray, ps: Sequence[float]
) -> np.ndarray:
    """``A**p`` of every positive semidefinite operand for every exponent p
    in ``ps``, from its eigendecomposition: shape ``(len(ps), r, k, d, d)``.

    Each operand's eigenvalues in its roundoff band below zero are clamped
    to zero; a genuinely negative eigenvalue is rejected.
    """
    band = 1e-10 * np.maximum(1.0, _per_operand(np.abs(evals)))
    smallest = _per_operand(evals, np.min)
    if np.any(smallest < -band):
        raise ValidationError(
            f"matrix is not positive semidefinite: eigenvalue {smallest.min():.3e}"
        )
    # the whole roundoff band collapses to an exact zero so that fractional
    # powers cannot amplify kernel perturbations
    clamped = np.where(evals < band[:, None, None], 0.0, evals)
    return _from_eig(clamped ** np.reshape(ps, (-1, 1, 1, 1)), vecs)


def _eigvals_stack(a: np.ndarray, zeros: int = 0) -> np.ndarray:
    """Eigenvalues of a one-operand stack with multiplicity, sorted by (real,
    imaginary) part: with ``zeros`` more exact zeros, or, when ``zeros`` is
    negative, ``-zeros`` fewer eigenvalues of the smallest modulus."""
    try:
        ev = np.linalg.eigvals(a).ravel()
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    if zeros > 0:
        ev = np.concatenate([ev, np.zeros(zeros, complex)])
    elif zeros < 0:
        ev = ev[np.argsort(np.abs(ev), kind="stable")[-zeros:]]
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]
