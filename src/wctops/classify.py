"""Ground-truth operator classification via defect operators.

The defect operator of order ``m`` is the alternating binomial sum
``B_m = sum_k (-1)^(m-k) C(m,k) T*^k T^k``; it vanishes exactly for
m-isometries.  Sandwiching it as ``T* B_m T`` gives the quasi version.
These computations serve as the oracle against which the function-level
criteria are audited.

``T f = w E(u f)`` maps the span of each partition block into itself, so
``T`` and every operator built from it here are block-diagonal.
``DefectOracle`` therefore computes on the diagonal blocks alone.  Each
block is rank one, ``a_b c_b*``, so ``T`` and ``T*`` vanish on the
complement of ``V_b = span{a_b, c_b}`` and map ``V_b`` into itself: in an
orthonormal basis of ``V_b`` every block is the 2x2 core ``[[lam, kappa],
[0, 0]]``.  ``linop._rank_one_cores`` hands over three per-block values,
``lam``, ``|lam|`` and ``|kappa|``, and the oracle keeps those, one array
entry per block; a singleton's ``|kappa|`` is 0.  The phase of kappa is
not needed: the core is unitarily equivalent to ``[[lam, |kappa|], [0,
0]]``.  The values are read from ``T`` alone, through three matvecs:
``T f`` and ``T* g`` give ``a_b`` and ``c_b`` for random probes f and g,
and ``T h`` checks the rank-one model on a third probe (Freivalds' check).
Reports read them from ``linop.wct_action``, in O(n) and with no ``n x n``
matrix.  ``spectrum`` is each block's eigenvalue ``lam``, one per block;
the other n - k eigenvalues of ``T`` are zero.

No operator is summed or solved.  On a core ``[[lam, kappa], [0, 0]]``,
``T^k = lam^(k-1) T`` for k >= 1, so with ``t = |lam|^2`` the grams are
``(T^k)* T^k = t^(k-1) T* T`` and the binomial sums collapse:
``T* B_m T = (t - 1)^m T* T`` and ``B_m = (-1)^m I + c_m(t) T* T``, with
``c_m(t) = ((t - 1)^m - (-1)^m) / t``.  ``T* T`` has the one nonzero
eigenvalue ``g = |(lam, kappa)|^2``, so every defect norm is a closed form
in t and g (``_defect_norms``) of the columns that ``_defect_scalars``
evaluates with no cancellation, where the alternating sums lose about
``eps (1 + t)^m`` (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 1-3).  The oracle keeps t and g, and no order.
``criteria.binomial_table`` reads the symbol route's ``J_m`` and ``J'_m``
from the same helper, and a two-route report makes one call of it for both
routes: ``criteria.audit_rows`` hands it the oracle's t beside the symbols'
``|E(uw)|^2``, and reads the oracle's defect norms from the oracle's
columns.  The oracle stays independent of the symbol route: its t and g
come from the action of ``T`` through the probes, not from conditional
expectations.

Normality is one verdict.  On a finite-dimensional space p-hyponormal for
any p > 0, hyponormal and normal coincide (Aluthge, *On p-hyponormal
operators for 0 < p < 1*, IEOT 13, 1990): ``D = (T* T)^p - (T T*)^p >= 0``
has trace 0, since ``T* T`` and ``T T*`` share their nonzero eigenvalues,
so ``D = 0``.  A rank-one block ``a c*`` is normal iff ``a`` is parallel to
``c``, and the negative part of its commutator over the top eigenvalue of
its ``T* T`` is ``sin theta``, with theta the angle between ``a`` and
``c``: on the core ``[[lam, kappa], [0, 0]]`` that is
``|kappa| / |(lam, kappa)|``, read with no eigensolve.  The verdict
compares ``max_b sin theta_b`` with ``NORMAL_EPS``; the number is the same
for ``T`` and ``c T``, whatever the scale ``c``.  The oracle reads it once,
in the reduction that reads its norm, and every ``normality()`` call
reports that one value.
"""

from __future__ import annotations

from functools import lru_cache
from math import isfinite

import numpy as np

from .errors import NumericError, ValidationError
from .linop import Action, _rank_one_cores
from .measure import Partition, _read_only

__all__ = ["DefectOracle"]

# The largest ``max_b sin theta_b`` of a normal operator.  The sine is
# scale-free, so this bound needs no scale; it sits far above the roundoff
# of a parallel pair, a few 1e-16.
NORMAL_EPS = 1e-9


def _default_tol(scale: float, power: int, m: int) -> float:
    """The default threshold ``1e-9 * max(1, scale**power)`` of order ``m``'s
    sum of products of ``power`` factors of size ``scale``: its roundoff
    floor grows like ``scale**power``.  NumericError naming the order when
    that power overflows or ``scale`` is not finite."""
    try:
        size = scale**power
    except OverflowError:
        size = float("inf")
    if not isfinite(size):
        raise NumericError(
            f"the threshold of order {m} overflows: scale {scale:.3e} to the power {power:g}"
        )
    return 1e-9 * max(1.0, size)


@lru_cache(maxsize=None)
def _order_columns(m_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only columns of ``(-1)^m``, of ``m`` and of ``c_m``'s limit
    ``(-1)^(m-1) m`` at ``t -> 0``, for the orders m = 1..m_max."""
    orders = np.arange(1.0, m_max + 1)[:, None]
    signs = (-1.0) ** orders
    columns = signs, orders, -signs * orders
    for column in columns:
        column.flags.writeable = False
    return columns


def _defect_scalars(t: np.ndarray, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(t - 1)^m`` and ``c_m(t) = ((t - 1)^m - (-1)^m) / t`` for m = 1..m_max,
    as the rows of two ``(m_max, k)`` arrays, for k values ``t >= 0``.

    Each column depends on its own ``t`` alone, so one call on the values
    of both routes gives each route the columns a call on its own values
    would.  The powers are the cumulative products of one ladder, and
    nothing in them cancels.  For t >= 1/2, ``c_m`` is taken as written:
    below t = 1 the difference has modulus at least 1/2, and above it its
    roundoff is a few eps of its terms.  Below t = 1/2 the difference
    ``(-1)^m ((1 - t)^m - 1)`` cancels, so it is ``(-1)^m expm1(m
    log1p(-t))``; where ``m t < 2^-53`` (t = 0, or t so small that ``m t``
    would be subnormal) ``c_m`` is its limit ``(-1)^(m-1) m``, exact to
    roundoff there.  A power past the double range is infinite, with no
    numpy warning; the callers check it.
    """
    signs, orders, limit = _order_columns(m_max)
    # orders * t >= t, so the smallest t decides which branches any column needs
    low = t.min(initial=np.inf)
    power = np.empty((m_max,) + t.shape)
    power[:] = t - 1.0
    with np.errstate(over="ignore"):
        np.multiply.accumulate(power, axis=0, out=power)
        diff = power - signs
        if low < 0.5:
            near = signs * np.expm1(orders * np.log1p(-np.minimum(t, 0.5)))
            diff = np.where(t < 0.5, near, diff)
        c = diff / t if low > 0 else diff / np.where(t > 0, t, 1.0)
        if low < 2.0**-53:
            c = np.where(orders * t < 2.0**-53, limit, c)
    return power, c


def _defect_norms(
    power: np.ndarray, c: np.ndarray, g: np.ndarray, singletons: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Norms of ``B_m`` and of ``T* B_m T`` for each order of the ladder
    columns ``(t - 1)^m`` and ``c_m(t)`` of ``_defect_scalars``, one column
    per block, with ``g = |(lam, kappa)|^2`` of each block.

    In closed form on every core: ``T* B_m T = (t - 1)^m T* T`` has norm
    ``|t - 1|^m g``.  ``B_m = (-1)^m I + c_m T* T`` is ``(-1)^m + c_m g`` on
    the range of ``T* T``, ``(t - 1)^m`` on a singleton, and ``(-1)^m`` on
    the kernel, which every block of two or more atoms has; an operator of
    ``singletons`` only has no kernel direction and may be injective (a
    unitary).  NumericError naming the first order whose norms overflow.
    """
    # |t - 1|^m g, and |t - 1|^m or |(-1)^m + c_m g|, as the rows of one
    # table, whose one reduction reads both norms of every order
    table = np.empty((2,) + power.shape)
    quasi_table, defect_table = table[0], table[1]
    with np.errstate(over="ignore"):
        if singletons:
            np.abs(power, out=defect_table)
            np.multiply(defect_table, g, out=quasi_table)
        else:
            np.multiply(np.abs(power, out=quasi_table), g, out=quasi_table)
            np.multiply(c, g, out=defect_table)
            defect_table += _order_columns(len(power))[0]
            np.abs(defect_table, out=defect_table)
        norms = table.max(axis=2)
        quasi, defect = norms[0], norms[1]
        if not singletons:
            defect = np.maximum(1.0, defect)
    finite = np.isfinite(quasi) & np.isfinite(defect)
    if np.count_nonzero(finite) != len(finite):
        m = int(np.argmin(finite)) + 1
        raise NumericError(
            f"the powers of T overflow: the defect norms of order {m} are not finite"
        )
    return defect, quasi


class DefectOracle:
    """The per-block values of one operator ``T``, read once from its cores.

    ``T`` is given by its action, and ``partition`` names blocks whose spans
    ``T`` maps into themselves; every block must be rank one to roundoff,
    else NumericError.  Read-only arrays with one entry per block, in block
    order: ``spectrum`` (``lam_b``), ``t`` (``|lam_b|^2``), ``g``
    (``|(lam_b, kappa_b)|^2``) and ``sine`` (``sin theta_b``).  ``norm`` is
    the largest ``sqrt(g_b)``, read with the largest sine, which
    ``normality`` reports; ``singletons`` says whether every block is one
    atom.  No value depends on an order m.
    """

    def __init__(self, T: Action, partition: Partition) -> None:
        lam, modulus, kappa = _rank_one_cores(T, partition)
        # the lengths and the sines as the rows of one array, whose one
        # reduction reads the norm and the normality residual
        rows = np.empty((2, len(lam)))
        lengths, sine = rows[0], rows[1]
        np.hypot(modulus, kappa, out=lengths)
        self.spectrum = _read_only(lam)
        # |kappa_b|, the corner of each core [[lam_b, |kappa_b|], [0, 0]]
        self._kappa = _read_only(kappa)
        self.t = _read_only(modulus**2)
        self.g = _read_only(lengths**2)
        # a zero block has length 0 and sine 0
        np.divide(kappa, np.where(lengths > 0, lengths, 1.0), out=sine)
        self.sine = _read_only(sine)
        self.norm, self._residual = rows.max(axis=1).tolist()
        self.singletons = partition.block_count == partition.atom_count

    def defect_norms(self, m_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Norms of ``B_m`` and of ``T* B_m T`` for m = 1..m_max, from the
        ladder ``_defect_scalars(self.t, m_max)``.  ValidationError for
        ``m_max < 1``."""
        if m_max < 1:
            raise ValidationError(f"m_max must be >= 1, got {m_max}")
        return _defect_norms(*_defect_scalars(self.t, m_max), self.g, self.singletons)

    def normality(self) -> dict:
        """The normality verdict: ``normal`` when ``residual``, the largest
        ``sin theta_b`` over the blocks, is at most ``tol = NORMAL_EPS``.

        By the equivalence in the module docstring this one verdict is also
        the hyponormal and every p-hyponormal one.  On block b's core the
        commutator has the eigenvalues ``-/+ |kappa| |(lam, kappa)|``, so
        its negative part over the top eigenvalue ``g_b`` of ``T* T`` is
        ``sin theta_b``, 0 on a zero block and on a singleton.
        """
        residual = self._residual
        return {"normal": residual <= NORMAL_EPS, "residual": residual, "tol": NORMAL_EPS}
