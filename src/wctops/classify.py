"""Ground-truth operator classification via defect operators.

The defect operator of order ``m`` is the alternating binomial sum
``sum_k (-1)^(m-k) C(m,k) T*^k T^k``; it vanishes exactly for
m-isometries.  Sandwiching it as ``T* B T`` gives the quasi version.
These matrix computations serve as the oracle against which the
function-level criteria are audited.

``T f = w E(u f)`` maps the span of each partition block into itself, so
``T`` and every operator built from it here are block-diagonal.
``DefectOracle`` therefore computes on the diagonal blocks alone, stacked
by block size (see the stack kernels in ``linop``).  Each block is rank
one, ``a_b c_b*``, so ``T`` and ``T*`` vanish on the complement of
``V_b = span{a_b, c_b}`` and map ``V_b`` into itself: a block of size
d >= 2 is kept as its 2x2 core in an orthonormal basis of ``V_b`` plus
d - 2 zero 1x1 blocks.  The cores are read from ``T`` alone, through three
matvecs: ``T f`` and ``T* g`` give ``a_b`` and ``c_b`` for random probes f
and g, and ``T h`` checks the rank-one model on a third probe (Freivalds'
check).  The oracle of a report reads them from ``linop.wct_action``, in
O(n) and with no ``n x n`` matrix; the oracle of a dense ``LinOp`` first
checks that every entry outside the blocks is exactly zero, then reads
the same cores from its matvecs.  Both cuts are exact, because every
operand built from ``T`` stays block-diagonal in the smaller blocks; the
zero blocks carry ``B_m = (-1)^m``, a zero ``T* B_m T``, commutator and
p-power, and the zeros of the spectrum.  The zero blocks are all alike, so
one of them stands for all in every norm and check, and ``spectrum`` adds
back the zeros the others carry.  Every check still runs on every block
with the scale of the whole operator.  The public functions on a
bare ``LinOp`` treat the whole matrix as one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Sequence

import numpy as np

from .errors import NumericError, PropertyViolation, ValidationError
from .linop import (
    Action,
    LinOp,
    _adj,
    _check_block_diagonal,
    _eigh_stack,
    _eigvals_stack,
    _one_block,
    _per_operand,
    _power_stack,
    _rank_one_cores,
    hermitian_eig,
    mult_op,
    op_norm,
)
from .measure import MeasureSpace, Mfunc, Partition

__all__ = [
    "DefectVerdict",
    "DefectOracle",
    "MultiplicationReport",
    "default_tolerance",
    "defect",
    "quasi_defect",
    "classify_isometry",
    "is_normal",
    "is_hyponormal",
    "is_p_hyponormal",
    "check_multiplication_corollary",
]


@dataclass(frozen=True)
class DefectVerdict:
    """Defect norms and the resulting verdicts for one order ``m``."""

    m: int
    defect_norm: float
    quasi_defect_norm: float
    tol: float
    is_m_isometric: bool
    is_quasi_m_isometric: bool


def default_tolerance(T: LinOp, m: int) -> float:
    """Classification threshold scaled as the defect terms scale.

    The order-m defect sums k-fold products of ``T`` and ``T*``, so the
    roundoff floor grows like ``norm(T)**(2m)``.
    """
    return 1e-9 * max(1.0, op_norm(T) ** (2 * m))


def _symmetrize(stack: list[np.ndarray], scale: np.ndarray) -> list[np.ndarray]:
    asym = _per_operand([np.abs(a - _adj(a)) for a in stack])
    if np.any(asym > 1e-10 * scale):
        i = int(np.argmax(asym / scale))
        raise NumericError(
            f"defect matrix asymmetry {asym[i]:.3e} exceeds 1e-10 "
            f"at scale {scale[i]:.3e}"
        )
    return [0.5 * (a + _adj(a)) for a in stack]


def _gram_stack(
    t: list[np.ndarray], k_max: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """``(T^k)* T^k`` for k = 0..k_max as operands of a stack, with the
    entry scale of each."""
    grams = []
    for a in t:
        tk = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
        powers = []
        for k in range(k_max + 1):
            if k > 0:
                tk = tk @ a
            powers.append(_adj(tk) @ tk)
        grams.append(np.concatenate(powers))
    return grams, np.maximum(1.0, _per_operand([np.abs(g) for g in grams]))


def _alternating_sums(
    grams: list[np.ndarray], scales: np.ndarray, orders: Sequence[int], shift: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """``sum_k (-1)^(m-k) C(m,k) G_(k+shift)`` for each m in ``orders``, with
    the scale of each sum: its largest ``C(m,k) * scale(G_(k+shift))``."""
    width = max(orders, default=0) + 1
    coef = np.zeros((len(orders), width))
    for i, m in enumerate(orders):
        for k in range(m + 1):
            coef[i, k] = (-1) ** (m - k) * comb(m, k)
    sums = [np.tensordot(coef, g[shift : shift + width], axes=1) for g in grams]
    scale = np.maximum(1.0, (np.abs(coef) * scales[shift : shift + width]).max(axis=1))
    return sums, scale


def _defects(
    grams: list[np.ndarray], scales: np.ndarray, orders: Sequence[int]
) -> list[np.ndarray]:
    """The defect operators ``B_m``, symmetrized with an asymmetry check."""
    return _symmetrize(*_alternating_sums(grams, scales, orders, shift=0))


def _quasi_defects(
    t: list[np.ndarray],
    grams: list[np.ndarray],
    scales: np.ndarray,
    defects: list[np.ndarray],
    orders: Sequence[int],
) -> list[np.ndarray]:
    """Sandwiches ``T* B_m T`` checked against the shifted binomial sums."""
    direct, scale_direct = _alternating_sums(grams, scales, orders, shift=1)
    sandwich = [_adj(a) @ b @ a for a, b in zip(t, defects)]
    scale = np.maximum(
        np.maximum(scale_direct, _per_operand([np.abs(s) for s in sandwich])), 1.0
    )
    dev = _per_operand([np.abs(d - s) for d, s in zip(direct, sandwich)])
    if np.any(dev > 1e-9 * scale):
        i = int(np.argmax(dev / scale))
        raise NumericError(
            f"quasi-defect formulas disagree by {dev[i]:.3e} at scale {scale[i]:.3e}"
        )
    return _symmetrize(sandwich, scale)


def defect(T: LinOp, m: int) -> LinOp:
    """The order-m defect operator, symmetrized with an asymmetry check."""
    if m < 1:
        raise ValidationError(f"defect order must be >= 1, got {m}")
    grams, scales = _gram_stack(_one_block(T.entries), m)
    return LinOp(_defects(grams, scales, [m])[0][0, 0])


def quasi_defect(T: LinOp, m: int) -> LinOp:
    """The sandwiched defect ``T* B_m T``.

    Computed both as the shifted binomial sum and as the literal sandwich;
    a disagreement between the two signals an implementation bug.
    """
    if m < 1:
        raise ValidationError(f"defect order must be >= 1, got {m}")
    t = _one_block(T.entries)
    grams, scales = _gram_stack(t, m + 1)
    defects = _defects(grams, scales, [m])
    return LinOp(_quasi_defects(t, grams, scales, defects, [m])[0][0, 0])


class DefectOracle:
    """The defect oracle of one operator ``T`` for orders m = 1..m_max.

    ``T`` is a dense ``LinOp`` or, with a partition, an ``Action``.
    ``partition`` names blocks whose spans ``T`` maps into themselves; every
    entry of a ``LinOp`` outside them must be exactly zero, and every block
    must be rank one to roundoff, else NumericError.  Without a partition
    the whole matrix is one block.  What several verdicts share is computed
    once: the gram stack ``(T^k)* T^k``, the eigendecompositions of
    ``T* T`` and ``T T*`` (the norm and every p-power use them), the defect
    norms and the commutator.  The norm of a Hermitian operand is the
    largest modulus of its own eigenvalues.
    """

    def __init__(
        self, T: LinOp | Action, m_max: int, partition: Partition | None = None
    ) -> None:
        if m_max < 0:
            raise ValidationError(f"m_max must be >= 0, got {m_max}")
        self.m_max = m_max
        if partition is None:
            if not isinstance(T, LinOp):
                raise ValidationError("an operator given by its action needs a partition")
            self._t, self._left_out_zeros = _one_block(T.entries), 0
        else:
            if isinstance(T, LinOp):
                _check_block_diagonal(T.entries, partition)
                T = Action.of_matrix(T.entries)
            self._t, self._left_out_zeros = _rank_one_cores(T, partition)
        self._grams, self._scales = _gram_stack(self._t, m_max + 1)

    @cached_property
    def _products(self) -> list[np.ndarray]:
        """``T* T`` and ``T T*`` as operands 0 and 1, symmetrized."""
        pairs = [
            np.concatenate([g[1:2], a @ _adj(a)]) for g, a in zip(self._grams, self._t)
        ]
        return [0.5 * (p + _adj(p)) for p in pairs]

    @cached_property
    def _products_eig(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return _eigh_stack(self._products)

    @cached_property
    def norm(self) -> float:
        """Operator norm of ``T``: the root of the top eigenvalue of ``T* T``."""
        top = float(_per_operand(self._products_eig[0])[0])
        return float(np.sqrt(max(top, 0.0)))

    @cached_property
    def defect_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Norms of ``B_m`` and of ``T* B_m T`` for m = 1..m_max."""
        orders = range(1, self.m_max + 1)
        defects = _defects(self._grams, self._scales, orders)
        quasi = _quasi_defects(self._t, self._grams, self._scales, defects, orders)
        evals, _ = _eigh_stack([np.concatenate(pair) for pair in zip(defects, quasi)])
        norms = _per_operand([np.abs(e) for e in evals])
        return norms[: self.m_max], norms[self.m_max :]

    @cached_property
    def commutator_residuals(self) -> tuple[float, float]:
        """Norm and negative part of the commutator ``T* T - T T*``."""
        comm = [p[:1] - p[1:] for p in self._products]
        evals, _ = _eigh_stack(comm)
        top = float(_per_operand([np.abs(e) for e in evals])[0])
        low = float(-_per_operand([-e for e in evals])[0])
        return top, max(0.0, -low)

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
            tol_m = tol if tol is not None else 1e-9 * max(1.0, self.norm ** (2 * m))
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
        eff_tol = tol if tol is not None else 1e-9 * max(1.0, self.norm**2)
        probes = []
        if probes_p:
            evals, vecs = self._products_eig
            diffs = []
            for p in probes_p:
                diffs.append([w[:1] - w[1:] for w in _power_stack(evals, vecs, p)])
            d_evals, _ = _eigh_stack([np.concatenate(ds) for ds in zip(*diffs)])
            lows = -_per_operand([-e for e in d_evals])
            for p, low in zip(probes_p, lows.tolist()):
                p_tol = tol if tol is not None else 1e-9 * max(1.0, self.norm ** (2 * p))
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


def classify_isometry(
    T: LinOp, m_max: int, tol: float | None = None
) -> list[DefectVerdict]:
    """Defect verdicts for m = 1..m_max.

    With ``tol=None`` each order uses the scaled default threshold.
    """
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    return DefectOracle(T, m_max).verdicts(tol)


def is_normal(T: LinOp, tol: float | None = None) -> bool:
    """``T* T = T T*`` up to ``tol`` in operator norm."""
    return DefectOracle(T, 0).normality((), tol)["normal"]


def is_hyponormal(T: LinOp, tol: float | None = None) -> bool:
    """``T* T - T T*`` positive semidefinite up to ``tol``."""
    return DefectOracle(T, 0).normality((), tol)["hyponormal"]


def is_p_hyponormal(T: LinOp, p: float, tol: float | None = None) -> bool:
    """``(T* T)**p >= (T T*)**p`` in the positive semidefinite order."""
    return DefectOracle(T, 0).normality((p,), tol)["p_hyponormal"][0]["holds"]


@dataclass(frozen=True)
class MultiplicationReport:
    """Dual-route verdicts for a multiplication operator.

    The pointwise route evaluates the closed forms ``(|u|^2 - 1)^m`` and
    ``|u|^2 (|u|^2 - 1)^m``; the matrix route computes defect spectra.
    """

    m: int
    tol: float
    pointwise_iso_residual: float
    pointwise_quasi_residual: float
    defect_norm: float
    quasi_defect_norm: float
    is_m_isometric: bool
    is_quasi_m_isometric: bool
    iso_spectrum_deviation: float
    quasi_spectrum_deviation: float


def check_multiplication_corollary(
    space: MeasureSpace, u: Mfunc, m: int, tol: float | None = None
) -> MultiplicationReport:
    """Cross-validate the pointwise and matrix classifications of ``M_u``.

    Raises PropertyViolation when the two routes disagree beyond ``tol``.
    """
    if m < 1:
        raise ValidationError(f"order must be >= 1, got {m}")
    T = mult_op(space, u)
    if tol is None:
        tol = default_tolerance(T, m)
    a2 = np.abs(u.values) ** 2
    iso_pointwise = (a2 - 1.0) ** m
    quasi_pointwise = a2 * iso_pointwise

    B = defect(T, m)
    Q = quasi_defect(T, m)
    b_evals, _ = hermitian_eig(B)
    q_evals, _ = hermitian_eig(Q)
    iso_dev = float(np.abs(np.sort(iso_pointwise) - b_evals).max())
    quasi_dev = float(np.abs(np.sort(quasi_pointwise) - q_evals).max())

    r_iso = float(np.abs(iso_pointwise).max())
    r_quasi = float(np.abs(quasi_pointwise).max())
    dn = op_norm(B)
    qn = op_norm(Q)

    spectra_tol = max(tol, 1e-9)
    if iso_dev > spectra_tol or quasi_dev > spectra_tol:
        raise PropertyViolation(
            f"pointwise and matrix defect spectra disagree at m={m}: "
            f"iso deviation {iso_dev:.3e}, quasi deviation {quasi_dev:.3e}"
        )
    if ((r_iso <= tol) != (dn <= tol)) or ((r_quasi <= tol) != (qn <= tol)):
        raise PropertyViolation(
            f"pointwise and matrix verdicts disagree at m={m}: "
            f"residuals ({r_iso:.3e}, {r_quasi:.3e}) vs norms ({dn:.3e}, {qn:.3e})"
        )
    return MultiplicationReport(
        m=m,
        tol=tol,
        pointwise_iso_residual=r_iso,
        pointwise_quasi_residual=r_quasi,
        defect_norm=dn,
        quasi_defect_norm=qn,
        is_m_isometric=dn <= tol,
        is_quasi_m_isometric=qn <= tol,
        iso_spectrum_deviation=iso_dev,
        quasi_spectrum_deviation=quasi_dev,
    )
