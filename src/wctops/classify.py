"""Ground-truth operator classification via defect operators.

The defect operator of order ``m`` is the alternating binomial sum
``sum_k (-1)^(m-k) C(m,k) T*^k T^k``; it vanishes exactly for
m-isometries.  Sandwiching it as ``T* B T`` gives the quasi version.
These computations serve as the oracle against which the function-level
criteria are audited.

``T f = w E(u f)`` maps the span of each partition block into itself, so
``T`` and every operator built from it here are block-diagonal.
``DefectOracle`` therefore computes on the diagonal blocks alone, held in
one stack array (see the stack kernels in ``linop``).  Each block is rank
one, ``a_b c_b*``, so ``T`` and ``T*`` vanish on the complement of
``V_b = span{a_b, c_b}`` and map ``V_b`` into itself: every block is kept
as its 2x2 core in an orthonormal basis of ``V_b``, and a singleton's
value is padded with one zero lane, unless every block is a singleton,
when the stack holds the 1x1 values alone.  The cores are read from ``T``
alone, through three matvecs: ``T f`` and ``T* g`` give ``a_b`` and ``c_b``
for random probes f and g, and ``T h`` checks the rank-one model on a
third probe (Freivalds' check).  Reports read them from
``linop.wct_action``, in O(n) and with no ``n x n`` matrix.

Both the lanes cut from a block and the lane padded onto a singleton are
kernel directions of ``T`` and ``T*``.  Each carries ``B_m = (-1)^m`` and a
zero ``T* B_m T``, commutator and p-power difference, and every rank-one
core already has such a kernel direction, so these values change no norm,
negative part, scale or check.  ``spectrum`` adds back the n - 2k zeros of
the cut lanes, or drops the 2k - n zeros of the padding when there are
more of those.  Every check runs on every block with the scale of the
whole operator.

The oracle solves its Hermitian operands in two eigensolve rounds.  The
first solves ``B_1..B_m``, ``T* B_m T``, ``T* T``, ``T T*`` and the commutator
in one call; the second solves the p-power differences, which are built
from the first round's eigendecompositions of ``T* T`` and ``T T*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, isfinite
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .linop import (
    Action,
    _adj,
    _eigh_stack,
    _eigvals_stack,
    _per_operand,
    _power_stack,
    _rank_one_cores,
)
from .measure import Partition

__all__ = ["DefectVerdict", "DefectOracle"]


@dataclass(frozen=True)
class DefectVerdict:
    """Defect norms and the resulting verdicts for one order ``m``."""

    m: int
    defect_norm: float
    quasi_defect_norm: float
    tol: float
    is_m_isometric: bool
    is_quasi_m_isometric: bool


def _default_tol(scale: float, power: float, what: str) -> float:
    """The default threshold ``1e-9 * max(1, scale**power)`` of a sum of
    products of ``power`` factors of size ``scale``: its roundoff floor
    grows like ``scale**power``.  NumericError naming ``what`` when that
    power overflows or ``scale`` is not finite."""
    try:
        size = scale**power
    except OverflowError:
        size = float("inf")
    if not isfinite(size):
        raise NumericError(
            f"the threshold of {what} overflows: scale {scale:.3e} to the power {power:g}"
        )
    return 1e-9 * max(1.0, size)


def _symmetrize(a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    adj = _adj(a)
    asym = _per_operand(np.abs(a - adj))
    if np.any(asym > 1e-10 * scale):
        i = int(np.argmax(asym / scale))
        raise NumericError(
            f"defect matrix asymmetry {asym[i]:.3e} exceeds 1e-10 "
            f"at scale {scale[i]:.3e}"
        )
    return 0.5 * (a + adj)


def _gram_stack(t: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(T^k)* T^k`` for k = 0..k_max as operands of a stack, with the
    entry scale of each.  NumericError when one of them overflows."""
    powers = [np.broadcast_to(np.eye(t.shape[-1], dtype=complex), t.shape)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k_max):
            powers.append(powers[-1] @ t)
        tk = np.concatenate(powers)
        grams = _adj(tk) @ tk
    scales = np.maximum(1.0, _per_operand(np.abs(grams)))
    if not np.isfinite(scales).all():
        k = int(np.argmin(np.isfinite(scales)))
        raise NumericError(f"the powers of T overflow: (T^{k})* T^{k} is not finite")
    return grams, scales


@lru_cache(maxsize=None)
def _alternating_binomials(m_max: int) -> np.ndarray:
    """The read-only ``(m_max, m_max + 1)`` matrix whose row m - 1 holds
    ``(-1)^(m-k) C(m,k)`` for k = 0..m, and zeros past k = m."""
    coef = np.zeros((m_max, m_max + 1))
    for m in range(1, m_max + 1):
        for k in range(m + 1):
            coef[m - 1, k] = (-1) ** (m - k) * comb(m, k)
    coef.flags.writeable = False
    return coef


def _alternating_sums(
    grams: np.ndarray, scales: np.ndarray, orders: Sequence[int], shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """``sum_k (-1)^(m-k) C(m,k) G_(k+shift)`` for each m in ``orders``, with
    the scale of each sum: its largest ``C(m,k) * scale(G_(k+shift))``."""
    width = max(orders, default=0) + 1
    coef = _alternating_binomials(width - 1)[np.asarray(orders, dtype=int) - 1]
    window = grams[shift : shift + width]
    sums = (coef @ window.reshape(width, -1)).reshape((len(orders),) + window.shape[1:])
    scale = np.maximum(1.0, (np.abs(coef) * scales[shift : shift + width]).max(axis=1))
    return sums, scale


def _defects(
    grams: np.ndarray, scales: np.ndarray, orders: Sequence[int]
) -> np.ndarray:
    """The defect operators ``B_m``, symmetrized with an asymmetry check."""
    return _symmetrize(*_alternating_sums(grams, scales, orders, shift=0))


def _quasi_defects(
    t: np.ndarray,
    grams: np.ndarray,
    scales: np.ndarray,
    defects: np.ndarray,
    orders: Sequence[int],
) -> np.ndarray:
    """Sandwiches ``T* B_m T`` checked against the shifted binomial sums."""
    direct, scale_direct = _alternating_sums(grams, scales, orders, shift=1)
    sandwich = _adj(t) @ defects @ t
    scale = np.maximum(np.maximum(scale_direct, _per_operand(np.abs(sandwich))), 1.0)
    dev = _per_operand(np.abs(direct - sandwich))
    if np.any(dev > 1e-9 * scale):
        i = int(np.argmax(dev / scale))
        raise NumericError(
            f"quasi-defect formulas disagree by {dev[i]:.3e} at scale {scale[i]:.3e}"
        )
    return _symmetrize(sandwich, scale)


class DefectOracle:
    """The defect oracle of one operator ``T`` for orders m = 1..m_max.

    ``T`` is given by its action, and ``partition`` names blocks whose spans
    ``T`` maps into themselves; every block must be rank one to roundoff,
    else NumericError.  What several verdicts share is computed once: the
    gram stack ``(T^k)* T^k`` and one eigensolve round over the defects, the
    sandwiched defects, ``T* T``, ``T T*`` and the commutator, which gives
    the norm, the defect norms, the commutator residuals and the
    eigendecompositions every p-power uses.  The norm of a Hermitian
    operand is the largest modulus of its own eigenvalues.
    """

    def __init__(self, T: Action, m_max: int, partition: Partition) -> None:
        if m_max < 0:
            raise ValidationError(f"m_max must be >= 0, got {m_max}")
        self.m_max = m_max
        self._t, self._left_out_zeros = _rank_one_cores(T, partition)
        self._grams, self._scales = _gram_stack(self._t, m_max + 1)

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        """The first eigensolve round: ``B_1..B_m_max``, then ``T* B_m T`` for
        m = 1..m_max, then ``T* T``, ``T T*`` and ``T* T - T T*``, each
        operand with its own checks."""
        orders = range(1, self.m_max + 1)
        defects = _defects(self._grams, self._scales, orders)
        quasi = _quasi_defects(self._t, self._grams, self._scales, defects, orders)
        products = np.concatenate([self._grams[1:2], self._t @ _adj(self._t)])
        products = 0.5 * (products + _adj(products))
        comm = products[:1] - products[1:]
        return _eigh_stack(np.concatenate([defects, quasi, products, comm]))

    @cached_property
    def norm(self) -> float:
        """Operator norm of ``T``: the root of the top eigenvalue of ``T* T``."""
        top = float(self._eig[0][2 * self.m_max].max())
        return float(np.sqrt(max(top, 0.0)))

    @cached_property
    def defect_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Norms of ``B_m`` and of ``T* B_m T`` for m = 1..m_max."""
        norms = _per_operand(np.abs(self._eig[0][: 2 * self.m_max]))
        return norms[: self.m_max], norms[self.m_max :]

    @cached_property
    def commutator_residuals(self) -> tuple[float, float]:
        """Norm and negative part of the commutator ``T* T - T T*``."""
        evals = self._eig[0][2 * self.m_max + 2]
        return float(np.abs(evals).max()), max(0.0, -float(evals.min()))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of ``T`` with multiplicity, sorted by (real, imaginary) part."""
        return _eigvals_stack(self._t, self._left_out_zeros)

    def verdicts(self, tol: float | None = None) -> list[DefectVerdict]:
        """Defect verdicts for m = 1..m_max.

        With ``tol=None`` each order uses the scaled default threshold.
        """
        dn, qn = self.defect_norms
        out = []
        for m in range(1, self.m_max + 1):
            tol_m = tol if tol is not None else _default_tol(self.norm, 2 * m, f"order {m}")
            d, q = float(dn[m - 1]), float(qn[m - 1])
            out.append(DefectVerdict(m, d, q, tol_m, d <= tol_m, q <= tol_m))
        return out

    def normality(
        self, probes_p: Sequence[float] = (), tol: float | None = None
    ) -> dict:
        """Normal, hyponormal and p-hyponormal verdicts with their residuals.

        The residuals are the norm of ``T* T - T T*``, its negative part,
        and for each ``p`` the negative part of ``(T* T)**p - (T T*)**p``.
        The default tolerances scale as ``norm(T)**2`` and ``norm(T)**(2p)``.
        """
        for p in probes_p:
            if p <= 0:
                raise ValidationError(
                    f"hyponormality exponent must be positive, got {p}"
                )
        normal_residual, hypo_residual = self.commutator_residuals
        # every threshold first: a power of the norm that overflows is named
        # here, before the p-powers of the eigenvalues overflow
        if tol is None:
            eff_tol = _default_tol(self.norm, 2, "normality")
            p_tols = [_default_tol(self.norm, 2 * p, f"p = {p:g}") for p in probes_p]
        else:
            eff_tol, p_tols = tol, [tol] * len(probes_p)
        probes = []
        if probes_p:
            # the second eigensolve round, on the p-powers of T* T and T T*
            i = 2 * self.m_max
            evals, vecs = self._eig[0][i : i + 2], self._eig[1][i : i + 2]
            powers = _power_stack(evals, vecs, probes_p)
            d_evals, _ = _eigh_stack(powers[:, 0] - powers[:, 1])
            lows = _per_operand(d_evals, np.min)
            for p, p_tol, low in zip(probes_p, p_tols, lows.tolist()):
                probes.append(
                    {
                        "p": float(p),
                        "holds": low >= -p_tol,
                        "residual": max(0.0, -low),
                        "tol": p_tol,
                    }
                )
        return {
            "normal": normal_residual <= eff_tol,
            "normal_residual": normal_residual,
            "hyponormal": hypo_residual <= eff_tol,
            "hyponormal_residual": hypo_residual,
            "tol": eff_tol,
            "p_hyponormal": probes,
        }
