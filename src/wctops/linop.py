"""Operator algebra in the orthonormalized atom basis.

The basis vector for atom ``x`` is the indicator of ``x`` scaled by
``mu(x)**-0.5``.  In these coordinates multiplication operators are
diagonal, the Hilbert-space adjoint is the plain conjugate transpose,
and the Euclidean inner product of coordinate vectors equals the
weighted inner product of the underlying functions.

An operator is given by its action on vectors (``Action``).  ``wct_action``
applies ``T f = w E(u f)`` and its adjoint in O(n) by segment sums over the
partition blocks, and the oracle reads each block's rank-one core from
three such matvecs (see the rank-one cores below), so no ``n x n`` matrix
is ever built.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import NumericError
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
# Rank-one cores
#
# ``T f = w E(u f)`` is block-diagonal over the partition, and each diagonal
# block is rank one, ``a_b c_b*``, so ``T`` and ``T*`` vanish on the
# complement of ``span{a_b, c_b}`` and map that span into itself.
# ``_rank_one_cores`` reads ``a_b`` and ``c_b`` from ``T f`` and ``T* g``
# for random probes f and g, checks the rank-one model on a third probe h,
# and keeps each block as its 2x2 core ``[[lam, kappa], [0, 0]]`` in an
# orthonormal basis of that span, all k cores in one ``(1, k, 2, 2)``
# array; a singleton's value lam is padded to ``[[lam, 0], [0, 0]]``.
# Cutting a block to its core, and padding a singleton, is exact: the lanes
# cut or added are kernel directions of ``T`` and ``T*``, where ``B_m`` is
# ``(-1)^m`` and ``T* B_m T`` and ``T* T`` are zero, and a 2x2 core has
# rank at most one, so it already has such a direction.  No norm moves.
# The nonzero eigenvalue of block b, if any, is its core's ``lam``: the
# spectrum of ``T`` is the k values ``lam`` and n - k zeros, one for each
# of a block's d_b - 1 other lanes.  An operator of singleton blocks only
# keeps a ``(1, k, 1, 1)`` array: it may be injective (a unitary), and a
# kernel lane would give it a spurious ``|B_m| = 1``.
# ``classify.DefectOracle`` reads every number it reports from the cores.


# an overflow in the matvecs is reported once, by the probe check
@np.errstate(over="ignore", invalid="ignore")
def _rank_one_cores(T: Action, partition: Partition) -> np.ndarray:
    """The core of every rank-one block of ``T``, in one ``(1, k, d, d)``
    array, read from three matvecs.  Entry ``[0, b, 0, 0]`` is block b's eigenvalue
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
    array is ``(1, k, 1, 1)``.  A third probe h checks the model
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
