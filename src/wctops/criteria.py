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

Both readings of both criteria run on the alternating binomial sums
``J_m(t)`` and ``J'_m(t)`` of ``t = |E(uw)|^2``.  ``binomial_table`` evaluates
them for every order m = 1..m_max at once, as two ``(m_max, k)`` arrays over
the k blocks, from one cached coefficient matrix (the one the oracle's
defect sums use) and one power call, and checks every element against
its closed form.  A report builds that table once, on its ``SymbolTable``, and
``audit_rows`` reads every audit row from it: each per-order residual is
one reduction over the table, and the attained values ``e_r`` come from
one row-wise sort, made only when the oracle's verdicts are given.
``normal_case_equivalence`` reads ``J'_m_max`` from the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import DefectOracle, DefectVerdict, _alternating_binomials, _default_tol
from .condexp import CondExp, block_averages
from .errors import NumericError, ValidationError
from .linop import wct_action
from .measure import Mfunc, ensure_on_space

__all__ = [
    "SymbolTable",
    "PropertyCheck",
    "NormalCaseReport",
    "AuditRow",
    "MismatchRecord",
    "DivergenceRecord",
    "AgreementReport",
    "symbols",
    "binomial_table",
    "j_double_prime_m",
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
    atom ``i``, so ``alpha[block_index]`` is ``E(uw)`` on the atoms.
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

    def binomials(self, m_max: int) -> tuple[np.ndarray, np.ndarray]:
        """``binomial_table(abs_alpha_sq, m_max)``, built once per ``m_max``
        and kept read-only."""
        tables = self.__dict__.setdefault("_binomials", {})
        if m_max not in tables:
            tables[m_max] = binomial_table(self.abs_alpha_sq, m_max)
            for table in tables[m_max]:
                table.flags.writeable = False
        return tables[m_max]


def symbols(ce: CondExp, w: Mfunc, u: Mfunc) -> SymbolTable:
    """Compute the symbol table of ``f -> w E(u f)`` block by block."""
    ensure_on_space(u, ce.space, "u")
    ensure_on_space(w, ce.space, "w")
    alpha = block_averages(ce, u.values * w.values)
    beta = block_averages(ce, np.abs(u.values) ** 2)
    gamma = block_averages(ce, np.abs(w.values) ** 2)
    t = np.abs(alpha) ** 2
    prod = beta * gamma
    # a finite product means finite E|u|^2 and E|w|^2 too: inf * 0 is NaN
    if not (np.isfinite(alpha).all() and np.isfinite(prod).all()):
        raise NumericError("the symbols overflow: E(uw) or E|u|^2 E|w|^2 is not finite")
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


def binomial_table(t_val, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``J_m(t)`` and ``J'_m(t)`` for m = 1..m_max, as the rows of two
    ``(m_max, len(t))`` arrays.

    ``J_m(t) = sum_{k=0}^{m} (-1)^(m-k) C(m,k) t^k`` and ``J'_m(t) =
    sum_{k=1}^{m} (-1)^(m-k) C(m,k) t^(k-1)``, for a one-dimensional array
    of non-negative values ``t``.  Every element is checked against its
    closed form, ``J_m(t) = (t - 1)^m`` and ``t J'_m(t) = (t - 1)^m - (-1)^m``,
    to within ``1e-12 * max(1, (1 + t)^m)``: the moduli of the sum's terms
    add up to ``(1 + t)^m``, which bounds its roundoff.  NumericError when
    that scale overflows.
    """
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    t = np.asarray(t_val, dtype=float)
    if (t < 0).any():
        raise ValidationError("t must be non-negative")
    orders = np.arange(1, m_max + 1)[:, None]
    with np.errstate(over="ignore"):
        size = np.maximum(1.0, (1.0 + t) ** orders)
    if not np.isfinite(size[-1]).all():
        raise NumericError(
            f"binomial sums of order {m_max} overflow at t = {float(t.max()):.3e}"
        )
    coef = _alternating_binomials(m_max)
    powers = t ** np.arange(m_max + 1)[:, None]
    j = coef @ powers
    j_prime = coef[:, 1:] @ powers[:-1]
    # the elements of both sums and of both closed forms, checked in one pass
    closed = (t - 1.0) ** orders
    rhs = np.concatenate((closed, closed - (-1.0) ** orders))
    dev = np.abs(np.concatenate((j, t * j_prime)) - rhs)
    bad = (dev > 1e-12 * np.concatenate((size, size))).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        m = i % m_max + 1
        worst = dev[i].max()
        if i < m_max:
            raise NumericError(f"binomial sum deviates from (t-1)^{m} by {worst:.3e}")
        raise NumericError(
            f"reduced binomial sum of order {m} violates its closure identity "
            f"by {worst:.3e}"
        )
    return j, j_prime


def j_double_prime_m(t_val, m: int):
    """Closed form ``(t - 1)^m - (-1)^m`` of the reduced sum scaled by ``t``.

    Equals ``J'_m(t) * E(|w|^2) E(|u|^2)`` whenever the symbol product
    collapses onto ``t``, which happens exactly for normal operators.
    """
    if m < 1:
        raise ValidationError(f"order must be >= 1, got {m}")
    t = np.asarray(t_val, dtype=float)
    out = (t - 1.0) ** m - (-1.0) ** m
    return out if np.ndim(t_val) else float(out)


def _quasi_residuals(st: SymbolTable, j: np.ndarray) -> np.ndarray:
    """``max |J_m(t)| E(|u|^2) E(|w|^2)`` over the joint support for each row
    of ``j``, 0 where the support is empty."""
    return (np.abs(j) * np.where(st.in_both, st.product, 0.0)).max(axis=1)


def _quasi_paper_residual(st: SymbolTable) -> float:
    """``max | |E(uw)| - 1 |`` over the whole space, the same for every m."""
    return float(np.abs(np.sqrt(st.abs_alpha_sq) - 1.0).max())


def _quasi_tol(st: SymbolTable, m: int) -> float:
    return _default_tol(float(st.product.max()), m, f"order {m}")


def _attained_rows(values: np.ndarray, tol: float) -> list[tuple[float, ...]]:
    """The values of each row, sorted and deduplicated to ``tol``."""
    out = []
    for row in np.sort(values, axis=1).tolist():
        kept = [row[0]]
        for v in row[1:]:
            if v - kept[-1] > tol:
                kept.append(v)
        out.append(tuple(kept))
    return out


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
    st: SymbolTable, oracle: DefectOracle, m_max: int, tol: float
) -> NormalCaseReport:
    """Check the equivalence package available for normal operators.

    Verifies the symbol identity ``E(|u|^2) E(|w|^2) = |E(uw)|^2``
    pointwise, then evaluates five properties independently (isometric,
    m-isometric for some m, quasi-isometric, quasi-m-isometric for some
    m, symbol product equal to 1) and reports whether they agree, reading
    the defect norms and the commutator of the operator's ``oracle``, built
    for at least ``m_max`` orders.
    """
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
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
    j_prime = st.binomials(m_max)[1][m_max - 1]
    jpp_residual = float(np.abs(j_prime * prod - j_double_prime_m(t, m_max)).max())

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
    """The audit row of each order m = 1..m_max, read from the symbol
    table's ``binomials(m_max)``.

    With the oracle's ``verdicts`` for those orders each order is read at
    the oracle's threshold; without them at ``tol`` (the quasi criterion's
    own default when None), and the oracle fields are None.
    """
    j, j_prime = st.binomials(m_max)
    quasi_residuals = _quasi_residuals(st, j).tolist()
    quasi_paper_residual = _quasi_paper_residual(st)
    # the literal m-isometry reading: every value of J'_m(t) E|w|^2 E|u|^2
    # equals (-1)^(m+1)
    values = j_prime * st.gamma * st.beta
    targets = (-1.0) ** np.arange(m_max)[:, None]
    m_iso_residuals = np.abs(values - targets).max(axis=1).tolist()
    if verdicts:
        if len(verdicts) != m_max:
            raise ValidationError(f"{len(verdicts)} oracle verdicts for m_max {m_max}")
        e_rs = _attained_rows(values, DEDUP_EPS)
    else:
        verdicts = e_rs = (None,) * m_max
    rows = []
    for m, v, residual, m_iso_residual, e_r in zip(
        range(1, m_max + 1), verdicts, quasi_residuals, m_iso_residuals, e_rs
    ):
        paper_m_iso = m_iso_residual <= PAPER_EPS
        if v is None:
            tol_m = tol if tol is not None else _quasi_tol(st, m)
            oracle = dict(
                oracle_quasi=None,
                oracle_quasi_norm=None,
                oracle_m_iso=None if paper_m_iso else False,
                oracle_defect_norm=None,
            )
        else:
            tol_m = v.tol
            oracle = dict(
                oracle_quasi=v.is_quasi_m_isometric,
                oracle_quasi_norm=v.quasi_defect_norm,
                oracle_m_iso=v.is_m_isometric,
                oracle_defect_norm=v.defect_norm,
            )
        rows.append(
            AuditRow(
                m=m,
                tol=tol_m,
                paper_quasi=quasi_paper_residual <= PAPER_EPS,
                corrected_quasi=residual <= tol_m,
                quasi_residual=residual,
                quasi_paper_residual=quasi_paper_residual,
                paper_m_iso=paper_m_iso,
                m_iso_paper_residual=m_iso_residual,
                e_r=e_r,
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


def essential_range(
    values: np.ndarray, dedup_tol: float = DEDUP_EPS
) -> tuple[complex, ...]:
    """Attained values of a function deduplicated to ``dedup_tol``.

    ``values`` is the array of the function's values, on the atoms or, for
    a block-constant symbol, one per block, such as ``SymbolTable.alpha``.
    On an atomic space every atom has positive mass, so the attained values
    and the essential range coincide.
    """
    vals = np.asarray(values, dtype=complex)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    out: list[complex] = []
    for v in vals.tolist():
        if not out or abs(v - out[-1]) > dedup_tol:
            out.append(v)
    return tuple(out)


def spectrum_matches_range(
    ev: np.ndarray, e_uw: np.ndarray, match_tol: float = 1e-8
) -> tuple[bool, float]:
    """Compare the nonzero eigenvalues ``ev`` of ``T`` with the nonzero
    values of ``E(uw)``.

    ``e_uw`` holds the values of ``E(uw)``, on the atoms or one per block
    (``SymbolTable.alpha``).  Returns the matching distance (largest
    distance from either set to the other, after dropping values of modulus
    <= ``match_tol``) and whether it stays within ``match_tol``.
    """
    ev = np.asarray(ev)
    ev = ev[np.abs(ev) > match_tol]
    attained = np.unique(np.asarray(e_uw, dtype=complex))
    attained = attained[np.abs(attained) > match_tol]
    if not ev.size and not attained.size:
        return True, 0.0
    if not ev.size or not attained.size:
        present = ev if ev.size else attained
        return False, float(np.abs(present).max())
    gaps = np.abs(ev[:, None] - attained[None, :])
    dist = float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))
    return dist <= match_tol, dist
