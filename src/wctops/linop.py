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

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import NumericError, ValidationError
from .measure import Mfunc, Partition, ensure_on_space

if TYPE_CHECKING:
    from .condexp import CondExp

__all__ = ["Action", "wct_action"]

# Seed of the random probes that read the rank-one cores: fixed, so that
# every report is the same on every run.  An integer, so that importing the
# package does not load ``numpy.random``; a report that draws probes does.
_PROBE_SEED = 20250923

# Rows of the probe block drawn once and kept read-only: at least the
# matrix route's atom limit (``cli.MATRIX_LIMIT``, 600), in 48 KiB.  A draw of n rows from a
# fresh ``PCG64(_PROBE_SEED)`` is the first n rows of any longer draw, so
# slicing the block gives the probes a fresh draw would.
_PROBE_ROWS = 1024


class Action(NamedTuple):
    """An operator given by its action on vectors: ``apply(x)`` is ``T x``
    and ``apply_adj(x)`` is ``T* x`` for every column of an ``(n, r)``
    array ``x``."""

    apply: Callable[[np.ndarray], np.ndarray]
    apply_adj: Callable[[np.ndarray], np.ndarray]


# an overflow of ``T`` is reported once, by the probe check of
# ``_rank_one_cores``, not also as numpy's warnings on the way there
@np.errstate(over="ignore", invalid="ignore")
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
# stack is solved in one ``_eigh_stack`` call.  Every block the oracle
# builds is 1x1 or 2x2, so that call solves them all in closed form
# (``_eigh_small``), with no LAPACK call and nothing that can fail to
# converge.  ``classify.DefectOracle`` makes one such call per report, for
# the defects, the sandwiched defects and ``T* T``.  It builds the grams
# ``(T^k)* T^k`` by broadcasting from the cores' first rows, not by one
# matrix product per block: on a core ``T^k = lam^(k-1) T``
# (``classify._gram_stack``).
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
# ``B_m``, and zero to ``T* B_m T``, ``T* T`` and every symmetry and
# reconstruction residual.  A 2x2 core has rank at most one, so it already
# has a kernel direction: ``B_m`` already has norm at least one on the core
# (its Rayleigh quotient there is ``(-1)^m``).  No norm, scale or check
# moves.
# The nonzero eigenvalue of block b, if any, is its core's ``lam``: the
# spectrum of ``T`` is the k values ``lam`` and n - k zeros, one for each
# of a block's d_b - 1 other lanes.  An operator of singleton blocks only
# keeps its 1x1 stack: it may be injective (a unitary), and a kernel lane
# would give it a spurious ``|B_m| = 1``.


# an overflow in the matvecs is reported once, by the probe check
@np.errstate(over="ignore", invalid="ignore")
def _rank_one_cores(T: Action, partition: Partition) -> np.ndarray:
    """The core of every rank-one block of ``T`` as a one-operand stack, read
    from three matvecs.  Entry ``[0, b, 0, 0]`` is block b's eigenvalue
    ``z* y / s``; the block's other d_b - 1 eigenvalues are zero.

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
    ``|y| |z| / |s|``.  The probes are the first n rows of one read-only
    block drawn once from a generator with a fixed seed (past the block's
    rows, a fresh draw from that seed), so the cores are the same on every
    run.
    """
    n, k, idx = partition.atom_count, partition.block_count, partition.block_index
    # complex Gaussian columns f, h and g
    probes = _probe_block()[:n] if n <= _PROBE_ROWS else _draw_probes(n)
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
    # numpy's complex division takes 1 / |y|^2, infinite for a subnormal
    # |y|^2: such a block is first scaled by 2^54, exactly, on both sides
    lift = np.where(yy < 2.0**-1022, 2.0**54, 1.0)
    proj = (zy * lift).conj() / np.where(yy > 0, yy * lift, 1.0)
    rr = partition.block_sums(np.abs(z - y * proj[idx]) ** 2)
    # |y| |r| as one root where |y|^2 |r|^2 is a normal double, and as two
    # past the double range, where that product under- or overflows
    both = yy * rr
    in_range = (both >= np.finfo(float).tiny) & (both < np.inf)
    value = zy * inv_s
    corner = np.where(in_range, np.sqrt(both), np.sqrt(yy) * np.sqrt(rr)) * inv_s

    # the norm of a rank-one block, |y| |z| / |s|, is that of its core
    scale = float(np.sqrt((np.abs(value) ** 2 + np.abs(corner) ** 2).max()))
    miss = th - y * (zh * inv_s)[idx]
    residual = float(np.sqrt(np.vdot(miss, miss).real))
    # negated, so that a NaN residual (an overflow in the matvecs) fails too;
    # an infinite scale would pass any residual, so it fails as well
    bound = 1e-10 * scale * float(np.sqrt(np.vdot(h, h).real))
    if not (residual <= bound and scale < np.inf):
        fault = "is not rank one" if np.isfinite(residual + scale) else "overflows"
        raise NumericError(
            f"operator block {fault}: probe residual {residual:.3e} "
            f"at scale {scale:.3e}"
        )

    single = partition.sizes == 1
    if single.all():
        return value[None, :, None, None]
    cores = np.zeros((1, k, 2, 2), dtype=complex)
    cores[0, :, 0, 0] = value
    # a singleton's corner is the roundoff of z - q1 (q1* z): pad it exactly
    cores[0, :, 0, 1] = np.where(single, 0.0, corner)
    return cores


def _draw_probes(rows: int) -> np.ndarray:
    """``rows`` rows of three complex Gaussian probes from a fresh
    ``PCG64(SeedSequence(_PROBE_SEED))``: shape ``(rows, 3)``."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_PROBE_SEED)))
    return rng.standard_normal((rows, 6)).view(complex)


@lru_cache(maxsize=None)
def _probe_block() -> np.ndarray:
    """The first ``_PROBE_ROWS`` rows of probes, drawn on first use and
    read-only."""
    block = _draw_probes(_PROBE_ROWS)
    block.flags.writeable = False
    return block


def _adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack array."""
    return a.conj().swapaxes(-1, -2)


def _per_operand(a: np.ndarray, reduce: np.ufunc = np.maximum) -> np.ndarray:
    """The ``reduce`` ufunc's reduction of each operand of a stack over all
    its entries: shape ``(r,)``."""
    return reduce.reduce(a, axis=tuple(range(1, a.ndim)))


def _eigh_stack(a: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues ``(r, k, d)`` of every Hermitian operand of
    a stack of 1x1 or 2x2 blocks, in closed form (``_eigh_small``).

    An operand with a non-finite entry (an overflow in the terms that built
    it) is a NumericError.  Hermitian symmetry is checked relative to each
    operand's entry scale, and the reconstruction ``V diag(lam) V*`` from
    the eigenvectors relative to its largest eigenvalue modulus.  A
    Hermitian operand of blocks larger than 2x2 is a ValidationError:
    ``_rank_one_cores`` builds none.
    """
    adj = _adj(a)
    scale = np.maximum(1.0, _per_operand(np.abs(a)))
    if not np.isfinite(scale).all():
        raise NumericError("matrix has non-finite entries: the terms that built it overflow")
    asym = _per_operand(np.abs(a - adj))
    if (asym > 1e-10 * scale).any():
        i = int(np.argmax(asym / scale))
        raise ValidationError(
            f"matrix is not Hermitian: max asymmetry {asym[i]:.3e} "
            f"at scale {scale[i]:.3e}"
        )
    if a.shape[-1] > 2:
        raise ValidationError(
            f"the stack eigensolver takes 1x1 and 2x2 blocks, got {a.shape[-1]}x{a.shape[-1]}"
        )
    herm = 0.5 * (a + adj)
    evals, vecs = _eigh_small(herm)
    # spectral norm of a Hermitian matrix is its largest |eigenvalue|; the
    # Frobenius norm bounds the spectral norm of the error from above.  The
    # error is taken relative to max(1, that norm) before it is squared, so
    # that the squares of a large operand do not overflow
    size = np.maximum(1.0, _per_operand(np.abs(evals)))[:, None, None, None]
    miss = np.abs(herm - _from_eig(evals, vecs)) / size
    err = np.sqrt(_per_operand(miss**2, np.add))
    # negated, so that a NaN error fails too
    if not (err <= 1e-9).all():
        raise NumericError(
            f"relative eigendecomposition reconstruction error {err.max():.3e} "
            f"exceeds tolerance"
        )
    return evals


def _eigh_small(herm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of every block of
    a Hermitian stack of 1x1 or 2x2 blocks, in a fixed number of array
    operations for the whole stack.

    A 1x1 block is its real entry with eigenvector 1.  A 2x2 block
    ``[[a, b], [conj(b), c]]`` is the symmetric Schur step (Golub and
    Van Loan, *Matrix Computations*, 8.5; LAPACK's ``zlaev2``): with
    ``h = a/2 - c/2``, ``mid = a/2 + c/2`` and ``r = hypot(h, |b|)`` the
    eigenvalues are ``mid - r`` and ``mid + r``, halved before adding so
    that no finite entry overflows.  The eigenvector of ``mid + r`` is
    ``(r + |h|, conj(b))`` when ``h > 0`` and ``(b, r + |h|)`` otherwise,
    which never cancels, normalised by ``hypot``; its partner is
    ``(-conj(v2), conj(v1))``.  A multiple of the identity gets ``V = I``.
    """
    if herm.shape[-1] == 1:
        return herm[..., 0].real, np.ones_like(herm)
    half = 0.5 * np.diagonal(herm, axis1=-2, axis2=-1).real
    h, mid = half[..., 0] - half[..., 1], half[..., 0] + half[..., 1]
    b = herm[..., 0, 1]
    mod = np.abs(b)
    r = np.hypot(h, mod)
    evals = np.empty(half.shape)
    np.subtract(mid, r, out=evals[..., 0])
    np.add(mid, r, out=evals[..., 1])
    # p = 0 only for a multiple of the identity (h = b = 0), whose larger
    # eigenvector is then taken as (0, 1)
    p = r + np.abs(h)
    flat = p == 0
    p[flat] = 1.0
    a_above = h > 0
    v = np.empty(h.shape + (2,), dtype=complex)
    v[..., 0] = np.where(a_above, p, b)
    v[..., 1] = np.where(a_above, b.conj(), p)
    # normalised as real pairs: numpy's complex division takes 1 / length,
    # which overflows for a subnormal length.  The pair is first scaled by
    # its larger modulus, so that its length is read from normal doubles: a
    # subnormal length, or a subnormal |b|, holds only a few digits
    pairs = v.view(float)
    pairs /= np.maximum(p, mod)[..., None]
    pairs /= np.hypot(np.abs(v[..., 0]), np.abs(v[..., 1]))[..., None]
    v1, v2 = v[..., 0], v[..., 1]
    vecs = np.empty(herm.shape, dtype=complex)
    vecs[..., 0, 0] = np.where(flat, 1.0, -v2.conj())
    vecs[..., 1, 0] = v1.conj()
    vecs[..., 0, 1] = v1
    vecs[..., 1, 1] = v2
    return evals, vecs


def _from_eig(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``V diag(lam) V*`` for every matrix in a stack array, as the sum of
    the d outer products ``lam_j v_j v_j*``: for 1x1 and 2x2 blocks this is
    a few array products, where ``@`` makes one matrix product per block."""
    scaled = vecs * evals[..., None, :]
    conj = vecs.conj()
    out = scaled[..., :, 0, None] * conj[..., None, :, 0]
    for j in range(1, vecs.shape[-1]):
        out += scaled[..., :, j, None] * conj[..., None, :, j]
    return out

