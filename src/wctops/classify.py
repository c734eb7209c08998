"""Ground-truth operator classification via defect operators.

The defect operator of order ``m`` is the alternating binomial sum
``B_m = sum_k (-1)^(m-k) C(m,k) T*^k T^k``; it vanishes exactly for
m-isometries.  Sandwiching it as ``T* B_m T`` gives the quasi version.
These computations serve as the oracle against which the function-level
criteria are audited.

``T f = w E(u f)`` maps the span of each partition block into itself, so
``T`` and every operator built from it here are block-diagonal.
``DefectOracle`` therefore computes on the diagonal blocks alone, held in
one array of cores (``linop._rank_one_cores``).  Each block is rank
one, ``a_b c_b*``, so ``T`` and ``T*`` vanish on the complement of
``V_b = span{a_b, c_b}`` and map ``V_b`` into itself: every block is kept
as its 2x2 core in an orthonormal basis of ``V_b``, and a singleton's
value is padded with one zero lane, unless every block is a singleton,
when the array holds the 1x1 values alone.  The cores are read from ``T``
alone, through three matvecs: ``T f`` and ``T* g`` give ``a_b`` and ``c_b``
for random probes f and g, and ``T h`` checks the rank-one model on a
third probe (Freivalds' check).  Reports read them from
``linop.wct_action``, in O(n) and with no ``n x n`` matrix.

Both the lanes cut from a block and the lane padded onto a singleton are
kernel directions of ``T`` and ``T*``.  Each carries ``B_m = (-1)^m`` and a
zero ``T* B_m T`` and ``T* T``, and every rank-one core already has such a
kernel direction, so these values change no norm.  ``spectrum`` reads
each block's eigenvalue from its core's diagonal, one per block; the other
n - k eigenvalues of ``T`` are zero.

No operator is summed or solved.  On a core ``[[lam, kappa], [0, 0]]`` (or
``[lam]``), ``T^k = lam^(k-1) T`` for k >= 1, so with ``t = |lam|^2`` the
grams are ``(T^k)* T^k = t^(k-1) T* T`` and the binomial sums collapse:
``T* B_m T = (t - 1)^m T* T`` and ``B_m = (-1)^m I + c_m(t) T* T``, with
``c_m(t) = ((t - 1)^m - (-1)^m) / t``.  ``T* T`` has the one nonzero
eigenvalue ``g = |(lam, kappa)|^2``, so every defect norm is a closed form
in t and g (``DefectOracle.defect_norms``), which ``_defect_scalars``
evaluates with no cancellation, where the alternating sums lose about
``eps (1 + t)^m`` (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 1-3).  ``criteria.binomial_table`` reads the symbol
route's ``J_m`` and ``J'_m`` from the same helper.  The oracle stays
independent of the symbol route: its t and g come from the action of
``T`` through the probes, not from conditional expectations.

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
for ``T`` and ``c T``, whatever the scale ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isfinite

import numpy as np

from .errors import NumericError, ValidationError
from .linop import Action, _rank_one_cores
from .measure import Partition

__all__ = ["DefectVerdict", "DefectOracle"]

# The largest ``max_b sin theta_b`` of a normal operator.  The sine is
# scale-free, so this bound needs no scale; it sits far above the roundoff
# of a parallel pair, a few 1e-16.
NORMAL_EPS = 1e-9


@dataclass(frozen=True)
class DefectVerdict:
    """Defect norms and the resulting verdicts for one order ``m``."""

    m: int
    defect_norm: float
    quasi_defect_norm: float
    tol: float
    is_m_isometric: bool
    is_quasi_m_isometric: bool


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
def _order_signs(m_max: int) -> np.ndarray:
    """The read-only column of ``(-1)^m`` for the orders m = 1..m_max."""
    signs = (-1.0) ** np.arange(1, m_max + 1)[:, None]
    signs.flags.writeable = False
    return signs


def _defect_scalars(t: np.ndarray, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(t - 1)^m`` and ``c_m(t) = ((t - 1)^m - (-1)^m) / t`` for m = 1..m_max,
    as the rows of two ``(m_max, k)`` arrays, for k values ``t >= 0``.

    The powers are the cumulative products of one ladder, and nothing in
    them cancels.  For t >= 1/2, ``c_m`` is taken as written: below t = 1
    the difference has modulus at least 1/2, and above it its roundoff is a
    few eps of its terms.  Below t = 1/2 the difference ``(-1)^m ((1 - t)^m
    - 1)`` cancels, so it is ``(-1)^m expm1(m log1p(-t))``; where
    ``m t < 2^-53`` (t = 0, or t so small that ``m t`` would be subnormal)
    ``c_m`` is its limit ``(-1)^(m-1) m``, exact to roundoff there.  A power
    past the double range is infinite, with no numpy warning; the callers
    check it.
    """
    signs = _order_signs(m_max)
    orders = np.arange(1.0, m_max + 1)[:, None]
    power = np.empty((m_max,) + t.shape)
    power[:] = t - 1.0
    with np.errstate(over="ignore"):
        np.multiply.accumulate(power, axis=0, out=power)
        near = signs * np.expm1(orders * np.log1p(-np.minimum(t, 0.5)))
        diff = np.where(t < 0.5, near, power - signs)
        c = np.where(orders * t < 2.0**-53, -signs * orders, diff / np.where(t > 0, t, 1.0))
    return power, c


class DefectOracle:
    """The defect oracle of one operator ``T`` for orders m = 1..m_max.

    ``T`` is given by its action, and ``partition`` names blocks whose spans
    ``T`` maps into themselves; every block must be rank one to roundoff,
    else NumericError.  Every number is read from the cores: the norm, the
    defect norms in closed form, normality and the spectrum.
    """

    def __init__(self, T: Action, m_max: int, partition: Partition) -> None:
        if m_max < 0:
            raise ValidationError(f"m_max must be >= 0, got {m_max}")
        self.m_max = m_max
        self._t = _rank_one_cores(T, partition)
        # |lam_b| and |kappa_b| of each core (|lam_b| alone in a 1x1 array),
        # and the block norm |(lam_b, kappa_b)|
        self._rows = np.abs(self._t[0, :, 0])
        self._lengths = np.hypot.reduce(self._rows, axis=-1)

    @cached_property
    def norm(self) -> float:
        """Operator norm of ``T``: the largest block norm ``|(lam_b, kappa_b)|``."""
        return float(self._lengths.max())

    @cached_property
    def defect_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Norms of ``B_m`` and of ``T* B_m T`` for m = 1..m_max, in closed
        form on every core, with ``t = |lam|^2`` and ``g = |(lam, kappa)|^2``.

        ``T* B_m T = (t - 1)^m T* T`` has norm ``|t - 1|^m g``.  ``B_m =
        (-1)^m I + c_m T* T`` has the eigenvalue ``(-1)^m`` on the kernel of
        ``T* T``, which every 2x2 core has, and ``(-1)^m + c_m g`` on its
        range; a 1x1 core is ``B_m = (t - 1)^m``.  NumericError naming the
        first order whose norms overflow.
        """
        t, g = self._rows[:, 0] ** 2, self._lengths**2
        with np.errstate(over="ignore"):
            power, c = _defect_scalars(t, self.m_max)
            quasi = (np.abs(power) * g).max(axis=1)
            if self._rows.shape[-1] == 1:
                defect = np.abs(power).max(axis=1)
            else:
                range_part = np.abs(_order_signs(self.m_max) + c * g).max(axis=1)
                defect = np.maximum(1.0, range_part)
        finite = np.isfinite(quasi) & np.isfinite(defect)
        if not finite.all():
            m = int(np.argmin(finite)) + 1
            raise NumericError(
                f"the powers of T overflow: the defect norms of order {m} are not finite"
            )
        return defect, quasi

    @property
    def spectrum(self) -> np.ndarray:
        """The eigenvalue of each block's rank-one core, in block order: a
        read-only array of k values.  The other n - k eigenvalues of ``T``
        are zero."""
        values = self._t[0, :, 0, 0]
        values.flags.writeable = False
        return values

    def verdicts(self) -> list[DefectVerdict]:
        """Defect verdicts for m = 1..m_max, each order at its scaled
        threshold ``_default_tol(norm, 2m, m)``."""
        dn, qn = self.defect_norms
        out = []
        for m in range(1, self.m_max + 1):
            tol_m = _default_tol(self.norm, 2 * m, m)
            d, q = float(dn[m - 1]), float(qn[m - 1])
            out.append(DefectVerdict(m, d, q, tol_m, d <= tol_m, q <= tol_m))
        return out

    def normality(self) -> dict:
        """The normality verdict: ``normal`` when ``residual``, the largest
        ``sin theta_b`` over the blocks, is at most ``tol = NORMAL_EPS``.

        By the equivalence in the module docstring this one verdict is also
        the hyponormal and every p-hyponormal one.  On block b's core
        ``[[lam, kappa], [0, 0]]`` the commutator has the eigenvalues
        ``-/+ |kappa| |(lam, kappa)|`` and ``T* T`` the top eigenvalue
        ``|(lam, kappa)|^2``, so the negative part of the one over the other
        is ``sin theta_b = |kappa| / |(lam, kappa)|``; it is 0 on a zero
        block and on a singleton, whose 1x1 core has no ``kappa``.
        """
        length = self._lengths
        sines = self._rows[:, 1:].sum(axis=-1) / np.where(length > 0, length, 1.0)
        residual = float(sines.max())
        return {"normal": residual <= NORMAL_EPS, "residual": residual, "tol": NORMAL_EPS}
