"""Function-level classification criteria and the agreement audit.

A weighted conditional type operator is determined by a handful of
block-constant symbols: ``E(uw)``, its squared modulus ``t``,
``E(|u|^2)``, ``E(|w|^2)`` and the supports of the last two.  The
criteria below classify the operator from those symbols alone.
``symbols`` takes the three averages in one chunked pass over the atoms,
``condexp.block_moments``, whose sums have the bytes of three
``block_averages`` calls: its chunks sum each block's atoms pairwise, in
block order, and its products are the same expressions.  Two
readings are evaluated side by side: a literal whole-space reading and a
corrected reading (restricted to the joint support for the quasi
criterion, deferred to the defect oracle for the m-isometry criterion).
Divergences between the readings are recorded as data; disagreement
between the corrected reading and the oracle is a mismatch and is what
the audit exists to rule out.

Both readings of both criteria run on the alternating binomial sums
``J_m(t)`` and ``J'_m(t)`` of ``t = |E(uw)|^2``.  ``binomial_table`` reads
them for every order m = 1..m_max at once, as two ``(m_max, k)`` arrays over
the k blocks, from their closed forms ``(t - 1)^m`` and ``c_m(t)``, which the
defect oracle evaluates with the same helper on its own ``t = |lambda|^2``.
``audit_rows`` builds each report's per-order table once, the one place
that states the order: with the oracle, one ladder of the helper covers
both routes' ``t`` side by side, the oracle's columns giving its defect
norms in closed form and the symbols' columns the table.  Every audit row
is read from that table: each per-order residual is one reduction over
it, the attained values ``e_r`` come from one row-wise sort, made only
when the defect oracle is given, and the rows are built from one column
per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .classify import DefectOracle, _default_tol, _defect_norms, _defect_scalars, _order_columns
from .condexp import CondExp, block_moments
from .errors import NumericError, ValidationError
from .linop import wct_action
from .measure import MeasureSpace, Mfunc, Partition, _read_only, ensure_on_space

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
    "audit_rows",
    "normal_case_equivalence",
    "audit_agreement",
    "essential_range",
    "spectrum_deviation",
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
    |alpha|^2``, ``beta = E(|u|^2)``, ``gamma = E(|w|^2)`` and their product
    ``product``; ``in_S`` and ``in_G`` mark the blocks where ``beta`` and
    ``gamma`` are nonzero relative to their largest value, and ``in_both``
    the blocks in both.  ``product`` and ``in_both`` are read-only.
    """

    alpha: np.ndarray
    abs_alpha_sq: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    product: np.ndarray
    in_S: np.ndarray
    in_G: np.ndarray
    in_both: np.ndarray


# an overflow is reported once, by the finiteness check, not also as
# numpy's warnings on the way there
@np.errstate(over="ignore", invalid="ignore")
def symbols(ce: CondExp, w: Mfunc, u: Mfunc) -> SymbolTable:
    """Compute the symbol table of ``f -> w E(u f)`` block by block."""
    ensure_on_space(u, ce.space, "u")
    ensure_on_space(w, ce.space, "w")
    alpha, beta, gamma = block_moments(ce, u.values, w.values)
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
    in_S, in_G = (s > SUPPORT_EPS * s.max() for s in (beta, gamma))
    return SymbolTable(
        alpha=alpha,
        abs_alpha_sq=t,
        beta=beta,
        gamma=gamma,
        product=_read_only(prod),
        in_S=in_S,
        in_G=in_G,
        in_both=_read_only(in_S & in_G),
    )


def binomial_table(t_val, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``J_m(t)`` and ``J'_m(t)`` for m = 1..m_max, as the rows of two
    ``(m_max, len(t))`` arrays.

    ``J_m(t) = sum_{k=0}^{m} (-1)^(m-k) C(m,k) t^k`` and ``J'_m(t) =
    sum_{k=1}^{m} (-1)^(m-k) C(m,k) t^(k-1)``, for a one-dimensional array
    of non-negative values ``t``, are read from their closed forms
    ``J_m(t) = (t - 1)^m`` and ``J'_m(t) = c_m(t) = ((t - 1)^m - (-1)^m) /
    t`` by the oracle's own helper, ``classify._defect_scalars``: summed,
    the terms cancel to roundoff of about ``eps (1 + t)^m``, and the closed
    forms do not cancel.  NumericError when ``(t - 1)^m`` overflows.
    """
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    t = np.asarray(t_val, dtype=float)
    if (t < 0).any():
        raise ValidationError("t must be non-negative")
    j, j_prime = _defect_scalars(t, m_max)
    _check_table(j, t)
    return j, j_prime


def _check_table(j: np.ndarray, t: np.ndarray) -> None:
    """NumericError when the table ``j = (t - 1)^m`` of ``t`` overflows."""
    # |t - 1|^m grows with m where it can overflow, so the last order shows it
    if not np.isfinite(j[-1]).all():
        raise NumericError(
            f"binomial sums of order {len(j)} overflow at t = {float(t.max()):.3e}"
        )


def _dedup_sorted(values: list, tol: float) -> tuple:
    """The sorted real ``values``, each kept when it lies more than ``tol``
    from the last value kept, which is the nearest value kept before it."""
    kept = values[:1]
    for v in values[1:]:
        if abs(v - kept[-1]) > tol:
            kept.append(v)
    return tuple(kept)


def _dedup_complex(values: list, tol: float) -> tuple:
    """The sorted complex ``values``, each kept unless it lies within ``tol``
    of a value kept before it.  A copy sorts next to the value it copies, so
    the last value kept is tried first; past it, the kept values are indexed
    by squares of side ``tol`` (1 at ``tol = 0``), and a value within ``tol``
    of ``v`` lies in one of the nine squares around the square of ``v``."""
    side = tol if tol > 0 else 1.0
    kept, squares = [], {}
    for v in values:
        if kept and abs(v - kept[-1]) <= tol:
            continue
        x, y = math.floor(v.real / side), math.floor(v.imag / side)
        near = (squares.get((i, j), ()) for i in (x - 1, x, x + 1) for j in (y - 1, y, y + 1))
        if not any(abs(v - k) <= tol for ks in near for k in ks):
            squares.setdefault((x, y), []).append(v)
            kept.append(v)
    return tuple(kept)


# Below this many values a table is deduplicated by the loop alone: the
# row masks of ``_attained_rows`` cost a dozen array calls, about as much
# as the loop takes over 128 values.
_MASKED_MIN = 128


def _attained_rows(values: np.ndarray, rel_tol: float) -> list[tuple[float, ...]]:
    """The values of each row, sorted and deduplicated to ``rel_tol`` times
    ``max(1, the row's largest modulus)``: the values grow like ``t^m``, so
    an absolute tolerance would split their roundoff copies, while a row of
    modulus at most 1 keeps the unit scale of the target ``(-1)^(m+1)``.

    On a table of ``_MASKED_MIN`` values or more, a row whose span is within
    its tolerance keeps its first value and a row whose every gap exceeds it
    keeps every value, as ``_dedup_sorted`` would; only the other rows go
    through its loop."""
    rows = np.sort(values, axis=1)
    if rows.size < _MASKED_MIN:
        return [
            _dedup_sorted(row, rel_tol * max(1.0, abs(row[0]), abs(row[-1])))
            for row in rows.tolist()
        ]
    first, last = rows[:, 0], rows[:, -1]
    # max(1, |first|, |last|) of a sorted row
    tols = rel_tol * np.maximum(1.0, np.maximum(-first, last))
    one = last - first <= tols
    every = np.logical_and.reduce(rows[:, 1:] - rows[:, :-1] > tols[:, None], axis=1)
    return [
        (row[0],) if o else tuple(row) if e else _dedup_sorted(row, tol)
        for row, tol, o, e in zip(rows.tolist(), tols.tolist(), one.tolist(), every.tolist())
    ]


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    holds: bool
    residual: float


@dataclass(frozen=True)
class NormalCaseReport:
    """Five-way equivalence data for a normal operator: the residual of the
    symbol identity and the five property checks."""

    identity_residual: float
    identity_ok: bool
    properties: tuple[PropertyCheck, ...]
    all_equal: bool


def normal_case_equivalence(
    st: SymbolTable, oracle: DefectOracle, rows: tuple[AuditRow, ...]
) -> NormalCaseReport | None:
    """Check the equivalence package available for normal operators.

    None when the operator's ``oracle`` reads it as not normal.  Otherwise
    verifies the symbol identity ``E(|u|^2) E(|w|^2) = |E(uw)|^2``
    pointwise, then evaluates five properties independently (isometric,
    m-isometric for some m, quasi-isometric, quasi-m-isometric for some
    m, symbol product equal to 1) and reports whether they agree.  The
    defect norms of every order, and the order-1 threshold at which every
    property is decided, are read from ``rows``, the audit rows that
    ``audit_rows(st, m_max, oracle)`` built with this oracle.
    """
    if not oracle.normality()["normal"]:
        return None
    tol = rows[0].tol
    t = st.abs_alpha_sq
    prod = st.product
    identity_residual = float(np.abs(prod - t).max())
    defect_norms = [r.oracle_defect_norm for r in rows]
    quasi_norms = [r.oracle_quasi_norm for r in rows]
    product_residual = max(
        float(np.abs(prod - 1.0).max()), float(np.abs(t - 1.0).max())
    )
    checks = tuple(
        PropertyCheck(name, residual <= tol, residual)
        for name, residual in (
            ("isometric", defect_norms[0]),
            ("m_isometric", min(defect_norms)),
            ("quasi_isometric", quasi_norms[0]),
            ("quasi_m_isometric", min(quasi_norms)),
            ("symbol_product_one", product_residual),
        )
    )
    verdicts = {c.holds for c in checks}
    return NormalCaseReport(
        identity_residual=identity_residual,
        identity_ok=identity_residual <= tol,
        properties=checks,
        all_equal=len(verdicts) == 1,
    )


@dataclass
class AuditRow:
    """Both readings of both criteria at order ``m`` beside the oracle's
    defect norms and verdicts, which are None where no oracle ran.

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


@dataclass(frozen=True, eq=False)
class MismatchRecord:
    """Counterexample data for a corrected-criterion/oracle disagreement:
    the audited operator's own space, partition and symbols, the order and
    the two numbers that disagree."""

    space: MeasureSpace
    partition: Partition
    u: Mfunc
    w: Mfunc
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
    """Audit rows and findings, with the oracle and the symbols they were
    computed from (the oracle's normality and spectrum and the block symbols
    are then at hand for the same operator).  The rows are plain, mutable
    ``AuditRow`` records, so a report is not hashable."""

    rows: tuple[AuditRow, ...]
    mismatches: tuple[MismatchRecord, ...]
    divergences: tuple[DivergenceRecord, ...]
    oracle: DefectOracle = field(compare=False, repr=False)
    symbols: SymbolTable = field(compare=False, repr=False)

    @property
    def agreed(self) -> bool:
        return not self.mismatches


def audit_rows(
    st: SymbolTable,
    m_max: int,
    oracle: DefectOracle | None = None,
) -> tuple[AuditRow, ...]:
    """The audit row of each order m = 1..m_max, read from the table
    ``J_m(t)``, ``J'_m(t)`` of ``t = st.abs_alpha_sq`` that ``binomial_table``
    gives.

    With the operator's defect ``oracle``, one ``_defect_scalars`` call
    takes the oracle's ``t`` and the symbols' side by side: its first
    columns give the oracle's defect norms in closed form, the rest the
    table.  Each row then carries the oracle's defect norms and verdicts,
    and each order is read at the oracle's threshold ``_default_tol(norm,
    2m, m)``; without it at the quasi criterion's own scaled threshold, and
    the oracle fields are None.  An overflow is reported by the first of
    the oracle's norms, the thresholds and the table to meet it.  The rows
    are built from one column per field.
    """
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    orders = range(1, m_max + 1)
    t = st.abs_alpha_sq
    if oracle is None:
        j, j_prime = binomial_table(t, m_max)
        scale = float(st.product.max())
        tols = [_default_tol(scale, m, m) for m in orders]
        oracle_quasi = quasi_norms = defect_norms = e_rs = (None,) * m_max
    else:
        k = len(oracle.t)
        power, c = _defect_scalars(np.concatenate((oracle.t, t)), m_max)
        dn, qn = _defect_norms(power[:, :k], c[:, :k], oracle.g, oracle.singletons)
        tols = [_default_tol(oracle.norm, 2 * m, m) for m in orders]
        j, j_prime = power[:, k:], c[:, k:]
        _check_table(j, t)
        defect_norms, quasi_norms = dn.tolist(), qn.tolist()
        oracle_quasi = [q <= tol for q, tol in zip(quasi_norms, tols)]
    # max |J_m(t)| E|u|^2 E|w|^2 over the joint support, 0 where it is empty
    quasi_residuals = (np.abs(j) * np.where(st.in_both, st.product, 0.0)).max(axis=1).tolist()
    # max | |E(uw)| - 1 | over the whole space, the same for every m
    quasi_paper_residual = float(np.abs(np.sqrt(t) - 1.0).max())
    # the literal m-isometry reading: every value of J'_m(t) E|w|^2 E|u|^2
    # equals (-1)^(m+1), so its residual is |value + (-1)^m|
    values = j_prime * st.gamma * st.beta
    m_iso_residuals = np.abs(values + _order_columns(m_max)[0]).max(axis=1).tolist()
    paper_m_iso = [r <= PAPER_EPS for r in m_iso_residuals]
    if oracle is None:
        oracle_m_iso = [None if paper else False for paper in paper_m_iso]
    else:
        oracle_m_iso = [d <= tol for d, tol in zip(defect_norms, tols)]
        e_rs = _attained_rows(values, DEDUP_EPS)
    # the columns in AuditRow's field order
    return tuple(
        map(
            AuditRow,
            orders,
            tols,
            repeat(quasi_paper_residual <= PAPER_EPS),
            [r <= tol for r, tol in zip(quasi_residuals, tols)],
            oracle_quasi,
            quasi_residuals,
            repeat(quasi_paper_residual),
            quasi_norms,
            paper_m_iso,
            oracle_m_iso,
            m_iso_residuals,
            defect_norms,
            e_rs,
        )
    )


def audit_agreement(
    ce: CondExp,
    w: Mfunc,
    u: Mfunc,
    m_max: int,
) -> AgreementReport:
    """Cross-validate criteria against the defect oracle for m = 1..m_max.

    Corrected-vs-oracle disagreements become mismatch records (they
    indicate a bug); literal-vs-oracle disagreements become divergence
    records (they are expected on specific adversarial inputs).
    """
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    st = symbols(ce, w, u)
    oracle = DefectOracle(wct_action(ce, w, u), ce.partition)
    rows = audit_rows(st, m_max, oracle)
    mismatches, divergences = [], []
    for r in rows:
        if r.corrected_quasi != r.oracle_quasi:
            mismatches.append(
                MismatchRecord(
                    ce.space, ce.partition, u, w, r.m, r.quasi_residual, r.oracle_quasi_norm
                )
            )
        if r.paper_quasi != r.oracle_quasi:
            divergences.append(
                DivergenceRecord(
                    "quasi", r.m, r.paper_quasi, r.oracle_quasi, r.quasi_paper_residual,
                    r.oracle_quasi_norm,
                )
            )
        if r.paper_m_iso != r.oracle_m_iso:
            divergences.append(
                DivergenceRecord(
                    "m_isometry", r.m, r.paper_m_iso, r.oracle_m_iso, r.m_iso_paper_residual,
                    r.oracle_defect_norm,
                )
            )
    return AgreementReport(rows, tuple(mismatches), tuple(divergences), oracle, st)


def essential_range(values: np.ndarray) -> tuple[complex, ...]:
    """Attained values of a function deduplicated to ``DEDUP_EPS`` times
    their largest modulus, so that the result scales with the values.

    ``values`` is the array of the function's values, on the atoms or, for
    a block-constant symbol, one per block, such as ``SymbolTable.alpha``.
    On an atomic space every atom has positive mass, so the attained values
    and the essential range coincide.
    """
    vals = np.asarray(values, dtype=complex)
    tol = DEDUP_EPS * float(np.abs(vals).max(initial=0.0))
    ordered = vals[np.lexsort((vals.imag, vals.real))]
    # no two real parts, or no two imaginary parts, within tol: all are kept
    if (np.diff(ordered.real) > tol).all() or (np.diff(np.sort(vals.imag)) > tol).all():
        return tuple(ordered.tolist())
    return _dedup_complex(ordered.tolist(), tol)


def spectrum_deviation(oracle: DefectOracle, alpha: np.ndarray) -> float:
    """``max_b |lambda_b - alpha_b| / |T|``: how far the eigenvalue of each
    block's core, ``oracle.spectrum``, lies from that block's ``E(uw)``
    (``SymbolTable.alpha``), relative to the operator norm.

    The two sides are computed independently, from three matvecs of ``T``
    and from ``condexp.block_moments``, and compared block by block, so a
    repeated value counts once per block.  0 when they agree exactly, as
    when both are all zero; infinite for any other deviation at ``|T| = 0``.
    """
    dev = float(np.abs(oracle.spectrum - alpha).max(initial=0.0))
    if dev == 0.0:
        return 0.0
    return dev / oracle.norm if oracle.norm > 0 else float("inf")
