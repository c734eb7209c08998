"""Function-level classification criteria and the agreement audit.

A weighted conditional type operator is determined by a handful of
block-constant symbols: ``E(uw)``, its squared modulus ``t``,
``E(|u|^2)``, ``E(|w|^2)`` and the supports of the last two.  The
criteria below classify the operator from those symbols alone.  Two
readings are evaluated side by side: a literal whole-space reading and a
corrected reading (restricted to the joint support for the quasi
criterion, deferred to the defect oracle for the m-isometry criterion).
Divergences between the readings are recorded as data; disagreement
between the corrected reading and the oracle is a mismatch and is what
the audit exists to rule out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .classify import DefectOracle, DefectVerdict
from .condexp import CondExp, block_averages
from .errors import NumericError, ValidationError
from .linop import LinOp, spectrum, wct_action
from .measure import Mfunc, ensure_on_space

__all__ = [
    "SymbolTable",
    "QuasiVerdict",
    "PropertyCheck",
    "NormalCaseReport",
    "AuditRow",
    "MismatchRecord",
    "DivergenceRecord",
    "AgreementReport",
    "symbols",
    "j_m",
    "j_prime_m",
    "j_double_prime_m",
    "quasi_criterion",
    "audit_rows",
    "normal_case_equivalence",
    "audit_agreement",
    "essential_range",
    "spectrum_matches_range",
]

# Support is decided relative to the largest block value, so that the
# gauge (u, w) -> (u/c, c w), which leaves the operator unchanged, leaves
# the supports unchanged too.
SUPPORT_EPS = 1e-12
PAPER_EPS = 1e-9
DEDUP_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class SymbolTable:
    """The block symbols of a weighted conditional type operator.

    One entry per partition block: ``alpha = E(uw)``, ``abs_alpha_sq =
    |alpha|^2``, ``beta = E(|u|^2)`` and ``gamma = E(|w|^2)``; ``in_S`` and
    ``in_G`` mark the blocks where ``beta`` and ``gamma`` are nonzero
    relative to their largest value.  ``block_index[i]`` is the block of
    atom ``i``.  The atomwise views ``e_uw``, ``t``, ``e_u2``, ``e_w2`` (as
    functions on the atoms) and ``S``, ``G``, ``support_both`` (as sets of
    atom indices) are built on first use.
    """

    alpha: np.ndarray
    abs_alpha_sq: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    in_S: np.ndarray
    in_G: np.ndarray
    block_index: np.ndarray

    @property
    def product(self) -> np.ndarray:
        """``E(|u|^2) E(|w|^2)`` on each block."""
        return self.beta * self.gamma

    @property
    def in_both(self) -> np.ndarray:
        """Blocks in the joint support of ``E(|u|^2)`` and ``E(|w|^2)``."""
        return self.in_S & self.in_G

    def _atomwise(self, block_values: np.ndarray) -> Mfunc:
        return Mfunc(block_values[self.block_index])

    def _atoms_in(self, blocks: np.ndarray) -> frozenset[int]:
        return frozenset(np.flatnonzero(blocks[self.block_index]).tolist())

    @cached_property
    def e_uw(self) -> Mfunc:
        return self._atomwise(self.alpha)

    @cached_property
    def t(self) -> Mfunc:
        return self._atomwise(self.abs_alpha_sq)

    @cached_property
    def e_u2(self) -> Mfunc:
        return self._atomwise(self.beta)

    @cached_property
    def e_w2(self) -> Mfunc:
        return self._atomwise(self.gamma)

    @cached_property
    def S(self) -> frozenset[int]:
        return self._atoms_in(self.in_S)

    @cached_property
    def G(self) -> frozenset[int]:
        return self._atoms_in(self.in_G)

    @cached_property
    def support_both(self) -> frozenset[int]:
        return self._atoms_in(self.in_both)


def symbols(ce: CondExp, w: Mfunc, u: Mfunc) -> SymbolTable:
    """Compute the symbol table of ``f -> w E(u f)`` block by block."""
    ensure_on_space(u, ce.space, "u")
    ensure_on_space(w, ce.space, "w")
    alpha = block_averages(ce, u.values * w.values)
    beta = block_averages(ce, np.abs(u.values) ** 2)
    gamma = block_averages(ce, np.abs(w.values) ** 2)
    t = np.abs(alpha) ** 2
    prod = beta * gamma
    hoelder_gap = float((t - prod).max())
    if hoelder_gap > 1e-10 * max(1.0, float(prod.max())):
        raise NumericError(
            f"conditional Hoelder inequality violated by {hoelder_gap:.3e}"
        )
    return SymbolTable(
        alpha=alpha,
        abs_alpha_sq=t,
        beta=beta,
        gamma=gamma,
        in_S=beta > SUPPORT_EPS * beta.max(),
        in_G=gamma > SUPPORT_EPS * gamma.max(),
        block_index=ce.partition.block_index,
    )


def _check_order(m: int) -> None:
    if m < 1:
        raise ValidationError(f"order must be >= 1, got {m}")


def j_m(t_val, m: int):
    """Alternating binomial sum ``sum_{k=0}^{m} (-1)^(m-k) C(m,k) t^k``.

    Accepts a scalar or an array of non-negative values.  The sum closes
    to ``(t - 1)^m``; the closed form is asserted against the sum.
    """
    _check_order(m)
    t = np.asarray(t_val, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be non-negative")
    total = np.zeros_like(t)
    for k in range(m + 1):
        total = total + (-1) ** (m - k) * comb(m, k) * t**k
    closed = (t - 1.0) ** m
    dev = float(np.abs(total - closed).max())
    scale = max(1.0, float(np.abs(closed).max()))
    if dev > 1e-12 * scale:
        raise NumericError(
            f"binomial sum deviates from (t-1)^{m} by {dev:.3e}"
        )
    return total if np.ndim(t_val) else float(total)


def j_prime_m(t_val, m: int):
    """Reduced sum ``sum_{k=1}^{m} (-1)^(m-k) C(m,k) t^(k-1)``.

    Satisfies ``t * J'_m(t) = (t - 1)^m - (-1)^m``; the identity is
    asserted.
    """
    _check_order(m)
    t = np.asarray(t_val, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be non-negative")
    total = np.zeros_like(t)
    for k in range(1, m + 1):
        total = total + (-1) ** (m - k) * comb(m, k) * t ** (k - 1)
    rhs = (t - 1.0) ** m - (-1.0) ** m
    dev = float(np.abs(t * total - rhs).max())
    scale = max(1.0, float(np.abs(rhs).max()))
    if dev > 1e-12 * scale:
        raise NumericError(
            f"reduced binomial sum violates its closure identity by {dev:.3e}"
        )
    return total if np.ndim(t_val) else float(total)


def j_double_prime_m(t_val, m: int):
    """Closed form ``(t - 1)^m - (-1)^m`` of the reduced sum scaled by ``t``.

    Equals ``J'_m(t) * E(|w|^2) E(|u|^2)`` whenever the symbol product
    collapses onto ``t``, which happens exactly for normal operators.
    """
    _check_order(m)
    t = np.asarray(t_val, dtype=float)
    out = (t - 1.0) ** m - (-1.0) ** m
    return out if np.ndim(t_val) else float(out)


@dataclass(frozen=True)
class QuasiVerdict:
    """Whole-space and joint-support readings of the quasi criterion."""

    m: int
    paper_verdict: bool
    corrected_verdict: bool
    residual: float
    paper_residual: float
    tol: float


def quasi_criterion(st: SymbolTable, m: int, tol: float | None = None) -> QuasiVerdict:
    """Quasi-m-isometry from the symbols.

    The literal reading demands ``|E(uw)| = 1`` at every atom.  The
    corrected reading restricts to the joint support and measures the
    residual ``max |J_m(t)| E(|u|^2) E(|w|^2)`` there, which equals the
    norm of the sandwiched defect.
    """
    _check_order(m)
    t = st.abs_alpha_sq
    prod = st.product
    paper_residual = float(np.abs(np.sqrt(t) - 1.0).max())
    both = st.in_both
    if both.any():
        residual = float((np.abs(j_m(t[both], m)) * prod[both]).max())
    else:
        residual = 0.0
    if tol is None:
        tol = 1e-9 * max(1.0, float(prod.max()) ** m)
    return QuasiVerdict(
        m=m,
        paper_verdict=paper_residual <= PAPER_EPS,
        corrected_verdict=residual <= tol,
        residual=residual,
        paper_residual=paper_residual,
        tol=tol,
    )


def _dedup_sorted(values: np.ndarray, tol: float) -> tuple[float, ...]:
    out: list[float] = []
    for v in np.sort(values):
        if not out or abs(float(v) - out[-1]) > tol:
            out.append(float(v))
    return tuple(out)


def _m_iso_paper(st: SymbolTable, m: int) -> tuple[float, tuple[float, ...]]:
    """Literal-reading residual and attained value set for the m-isometry test."""
    target = 1.0 if m % 2 else -1.0
    vals = j_prime_m(st.abs_alpha_sq, m) * st.gamma * st.beta
    return float(np.abs(vals - target).max()), _dedup_sorted(vals, DEDUP_EPS)


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    holds: bool
    residual: float


@dataclass(frozen=True)
class NormalCaseReport:
    """Five-way equivalence data for a normal operator.

    ``applicable`` is False when the operator fails the normality
    precondition; the remaining fields are then unset placeholders.
    """

    applicable: bool
    normal_residual: float
    identity_residual: float
    identity_ok: bool
    j_double_prime_residual: float
    properties: tuple[PropertyCheck, ...]
    all_equal: bool


def normal_case_equivalence(
    st: SymbolTable, T: LinOp | DefectOracle, m_max: int, tol: float
) -> NormalCaseReport:
    """Check the equivalence package available for normal operators.

    Verifies the symbol identity ``E(|u|^2) E(|w|^2) = |E(uw)|^2``
    pointwise, then evaluates five properties independently (isometric,
    m-isometric for some m, quasi-isometric, quasi-m-isometric for some
    m, symbol product equal to 1) and reports whether they agree.  ``T``
    may be an oracle already built on the operator for at least ``m_max``
    orders; its defect norms and commutator are then reused.
    """
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    oracle = T if isinstance(T, DefectOracle) else DefectOracle(T, m_max)
    if oracle.m_max < m_max:
        raise ValidationError(
            f"oracle covers orders up to {oracle.m_max}, not {m_max}"
        )
    normal_residual = oracle.commutator_residuals[0]
    if normal_residual > tol:
        return NormalCaseReport(
            applicable=False,
            normal_residual=normal_residual,
            identity_residual=float("nan"),
            identity_ok=False,
            j_double_prime_residual=float("nan"),
            properties=(),
            all_equal=False,
        )
    t = st.abs_alpha_sq
    prod = st.product
    identity_residual = float(np.abs(prod - t).max())
    jpp_residual = float(
        np.abs(j_prime_m(t, m_max) * prod - j_double_prime_m(t, m_max)).max()
    )

    dn, qn = oracle.defect_norms
    defect_norms = dn[:m_max].tolist()
    quasi_norms = qn[:m_max].tolist()
    product_residual = max(
        float(np.abs(prod - 1.0).max()), float(np.abs(t - 1.0).max())
    )
    checks = (
        PropertyCheck("isometric", defect_norms[0] <= tol, defect_norms[0]),
        PropertyCheck("m_isometric", min(defect_norms) <= tol, min(defect_norms)),
        PropertyCheck("quasi_isometric", quasi_norms[0] <= tol, quasi_norms[0]),
        PropertyCheck(
            "quasi_m_isometric", min(quasi_norms) <= tol, min(quasi_norms)
        ),
        PropertyCheck(
            "symbol_product_one", product_residual <= tol, product_residual
        ),
    )
    verdicts = {c.holds for c in checks}
    return NormalCaseReport(
        applicable=True,
        normal_residual=normal_residual,
        identity_residual=identity_residual,
        identity_ok=identity_residual <= tol,
        j_double_prime_residual=jpp_residual,
        properties=checks,
        all_equal=len(verdicts) == 1,
    )


@dataclass(frozen=True)
class AuditRow:
    """Both readings of both criteria at order ``m`` beside the oracle's
    verdicts, which are None where no oracle ran.

    ``paper_m_iso`` asks that the attained values ``e_r`` of
    ``J'_m(t) E(|w|^2) E(|u|^2)`` all equal ``(-1)^(m+1)``.  A projection
    with a kernel passes without being an m-isometry, so the corrected
    reading is ``oracle_m_iso``; without an oracle a failed literal
    reading still makes it false.
    """

    m: int
    tol: float
    paper_quasi: bool
    corrected_quasi: bool
    oracle_quasi: bool | None
    quasi_residual: float
    quasi_paper_residual: float
    oracle_quasi_norm: float | None
    paper_m_iso: bool
    oracle_m_iso: bool | None
    m_iso_paper_residual: float
    oracle_defect_norm: float | None
    e_r: tuple[float, ...] | None


@dataclass(frozen=True)
class MismatchRecord:
    """Counterexample data for a corrected-criterion/oracle disagreement."""

    weights: tuple[float, ...]
    blocks: tuple[tuple[int, ...], ...]
    u: tuple[complex, ...]
    w: tuple[complex, ...]
    m: int
    criterion_residual: float
    oracle_norm: float


@dataclass(frozen=True)
class DivergenceRecord:
    """A literal-reading verdict that differs from the oracle."""

    kind: str  # 'quasi' or 'm_isometry'
    m: int
    paper_verdict: bool
    oracle_verdict: bool
    paper_residual: float
    oracle_norm: float


@dataclass(frozen=True)
class AgreementReport:
    """Audit rows and findings, with the oracle's verdicts they were read
    from, the oracle itself and the symbols they were computed from (the
    oracle's normality and spectrum and the block symbols are then at hand
    for the same operator)."""

    rows: tuple[AuditRow, ...]
    mismatches: tuple[MismatchRecord, ...]
    divergences: tuple[DivergenceRecord, ...]
    verdicts: tuple[DefectVerdict, ...]
    oracle: DefectOracle = field(compare=False, repr=False)
    symbols: SymbolTable = field(compare=False, repr=False)

    @property
    def agreed(self) -> bool:
        return not self.mismatches


def audit_rows(
    st: SymbolTable,
    m_max: int,
    tol: float | None = None,
    verdicts: tuple[DefectVerdict, ...] | None = None,
) -> tuple[AuditRow, ...]:
    """The audit row of each order m = 1..m_max.

    With the oracle's ``verdicts`` for those orders each order is read at
    the oracle's threshold; without them at ``tol`` (the quasi criterion's
    own default when None), and the oracle fields are None.
    """
    rows = []
    for m, v in enumerate(verdicts or (None,) * m_max, start=1):
        q = quasi_criterion(st, m, tol if v is None else v.tol)
        paper_residual, e_r = _m_iso_paper(st, m)
        paper_m_iso = paper_residual <= PAPER_EPS
        if v is None:
            oracle = dict(
                oracle_quasi=None,
                oracle_quasi_norm=None,
                oracle_m_iso=None if paper_m_iso else False,
                oracle_defect_norm=None,
                e_r=None,
            )
        else:
            oracle = dict(
                oracle_quasi=v.is_quasi_m_isometric,
                oracle_quasi_norm=v.quasi_defect_norm,
                oracle_m_iso=v.is_m_isometric,
                oracle_defect_norm=v.defect_norm,
                e_r=e_r,
            )
        rows.append(
            AuditRow(
                m=m,
                tol=q.tol,
                paper_quasi=q.paper_verdict,
                corrected_quasi=q.corrected_verdict,
                quasi_residual=q.residual,
                quasi_paper_residual=q.paper_residual,
                paper_m_iso=paper_m_iso,
                m_iso_paper_residual=paper_residual,
                **oracle,
            )
        )
    return tuple(rows)


def audit_agreement(
    ce: CondExp,
    w: Mfunc,
    u: Mfunc,
    m_max: int,
    tol: float | None = None,
) -> AgreementReport:
    """Cross-validate criteria against the defect oracle for m = 1..m_max.

    Corrected-vs-oracle disagreements become mismatch records (they
    indicate a bug); literal-vs-oracle disagreements become divergence
    records (they are expected on specific adversarial inputs).
    """
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    st = symbols(ce, w, u)
    oracle = DefectOracle(wct_action(ce, w, u), m_max, ce.partition)
    verdicts = tuple(oracle.verdicts(tol))
    rows = audit_rows(st, m_max, tol, verdicts)
    mismatches = tuple(
        MismatchRecord(
            weights=tuple(ce.space.weights.tolist()),
            blocks=ce.partition.blocks,
            u=tuple(u.values.tolist()),
            w=tuple(w.values.tolist()),
            m=r.m,
            criterion_residual=r.quasi_residual,
            oracle_norm=r.oracle_quasi_norm,
        )
        for r in rows
        if r.corrected_quasi != r.oracle_quasi
    )
    divergences = tuple(
        DivergenceRecord(kind, r.m, paper, oracle_verdict, paper_residual, norm)
        for r in rows
        for kind, paper, oracle_verdict, paper_residual, norm in (
            ("quasi", r.paper_quasi, r.oracle_quasi, r.quasi_paper_residual,
             r.oracle_quasi_norm),
            ("m_isometry", r.paper_m_iso, r.oracle_m_iso, r.m_iso_paper_residual,
             r.oracle_defect_norm),
        )
        if paper != oracle_verdict
    )
    return AgreementReport(rows, mismatches, divergences, verdicts, oracle, st)


def _values(f: Mfunc | np.ndarray) -> np.ndarray:
    return np.asarray(f.values if isinstance(f, Mfunc) else f, dtype=complex)


def essential_range(
    f: Mfunc | np.ndarray, dedup_tol: float = DEDUP_EPS
) -> tuple[complex, ...]:
    """Attained values of ``f`` deduplicated to ``dedup_tol``.

    ``f`` is a function on the atoms or the array of its values, such as
    the per-block ``SymbolTable.alpha`` of a block-constant symbol.  On an
    atomic space every atom has positive mass, so the attained values and
    the essential range coincide.
    """
    vals = _values(f)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    out: list[complex] = []
    for v in vals.tolist():
        if not out or abs(v - out[-1]) > dedup_tol:
            out.append(v)
    return tuple(out)


def spectrum_matches_range(
    T: LinOp | np.ndarray, e_uw: Mfunc | np.ndarray, match_tol: float = 1e-8
) -> tuple[bool, float]:
    """Compare nonzero eigenvalues of ``T`` with nonzero values of ``E(uw)``.

    ``T`` is the operator or its already computed spectrum; ``e_uw`` is the
    function on the atoms or its attained values (per-block ``alpha``).
    Returns the matching distance (largest distance from either set to the
    other, after dropping values of modulus <= ``match_tol``) and whether
    it stays within ``match_tol``.
    """
    ev = spectrum(T) if isinstance(T, LinOp) else np.asarray(T)
    ev = ev[np.abs(ev) > match_tol]
    attained = np.unique(_values(e_uw))
    attained = attained[np.abs(attained) > match_tol]
    if not ev.size and not attained.size:
        return True, 0.0
    if not ev.size or not attained.size:
        present = ev if ev.size else attained
        return False, float(np.abs(present).max())
    gaps = np.abs(ev[:, None] - attained[None, :])
    dist = float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))
    return dist <= match_tol, dist
