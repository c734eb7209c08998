"""Command-line front end: classify operators, reproduce the stock
examples, and drive the randomized agreement suite.

Problem specs are JSON documents; complex numbers are written as
``[re, im]`` pairs.  Reports come in a human table form and a structured
(JSON) form; every boolean verdict is paired with the residual that
produced it.

Exit codes: 0 all requested audits passed, 2 validation error (bad
input, an input too large for memory, or a report that cannot be
written), 3 a corrected-criterion/oracle mismatch was found, 4 a numeric
failure (an internal consistency check failed or a value overflowed).
When the reader of standard output closes it early (``wctops ... | head``),
the rest of the report is dropped and the exit code is still the report's
own, 0 or 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from itertools import chain
from numbers import Integral
from typing import Any, Sequence

import numpy as np

from .classify import DefectOracle
from .condexp import CondExp, block_averages
from .criteria import (
    SymbolTable,
    audit_rows,
    essential_range,
    findings,
    normal_case_equivalence,
    spectrum_deviation,
    symbols,
)
from .errors import NumericError, ValidationError
from .linop import wct_action
from .measure import (
    MeasureSpace,
    Mfunc,
    Partition,
    geometric_space,
    grid_space,
    make_partition,
    make_space,
    singleton_blocks,
)

__all__ = [
    "ProblemSpec",
    "ClassificationReport",
    "ExampleAReport",
    "ExampleBReport",
    "SweepReport",
    "SuiteReport",
    "Instance",
    "random_instance",
    "suite_instances",
    "fixture_projection",
    "fixture_support_gap",
    "classify_operator",
    "cmd_classify",
    "cmd_example_a",
    "cmd_example_b",
    "cmd_random_suite",
    "cmd_sweep_m",
    "main",
]

# Above this many atoms the matrix route is skipped and only the
# symbol-level criteria are reported.  The oracle reads T through O(n)
# matvecs and needs no n x n matrix, but a report past the limit would
# add an oracle pass to the 10^6-atom grid of the symbol-scale benchmark;
# the limit stays until that workload is revised.
MATRIX_LIMIT = 600


def _read_entries(values: list, name: str, pairs: bool) -> np.ndarray:
    """A spec field's list read entry by entry, each entry a number, as a
    float array; with ``pairs`` an entry may also be an ``[re, im]`` pair of
    numbers, and the array is complex.  A number is an int or a float but
    not a bool (JSON's ``true`` is not 1).  The first bad entry is a
    ValidationError that names it; so is an integer past the double range,
    by its size, since printing every digit of it can itself fail."""
    read = []
    for i, v in enumerate(values):
        parts = v if pairs and isinstance(v, (list, tuple)) and len(v) == 2 else (v,)
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
            expected = "a number or an [re, im] pair" if pairs else "a number"
            raise ValidationError(f"spec field '{name}[{i}]': expected {expected}, got {v!r}")
        floats = []
        for x in parts:
            try:
                floats.append(float(x))
            except OverflowError:
                raise ValidationError(
                    f"spec field '{name}[{i}]': an integer of {x.bit_length()} bits "
                    f"is outside the double range"
                ) from None
        read.append(complex(*floats) if pairs else floats[0])
    return np.array(read)


# The exact types of a JSON number.  A bool, a numpy scalar and any other
# subclass are left to ``_read_entries``, which accepts or names them.
_NUMBER_TYPES = {int, float}


def _bulk_numbers(values: list) -> np.ndarray | None:
    """A list whose entries are all exact ints and floats, or all ``[re, im]``
    pairs of them, as one float array of shape ``(n,)`` or ``(n, 2)``.

    The entry types are checked by C-level scans, so a spec of plain JSON
    numbers is read with no Python call per entry.  None for anything else,
    and for an integer past the double range: ``_read_entries`` then reads
    the list, and names its first bad entry.
    """
    flat, kinds = values, set(map(type, values))
    if kinds == {list} and set(map(len, values)) == {2}:
        flat = list(chain.from_iterable(values))
        kinds = set(map(type, flat))
    if not kinds <= _NUMBER_TYPES:
        return None
    try:
        array = np.array(flat, dtype=float)
    except OverflowError:
        return None
    return array if flat is values else array.reshape(-1, 2)


def _read_numbers(values: list, name: str, pairs: bool) -> np.ndarray:
    """A list-of-numbers spec field (of numbers or ``[re, im]`` pairs, with
    ``pairs``): in bulk, else by ``_read_entries``.  A list of plain numbers
    is read as its float array, so a real function stays real; a list of
    pairs, or of mixed entries, is complex."""
    array = _bulk_numbers(values)
    if array is None or array.ndim == 2 and not pairs:
        return _read_entries(values, name, pairs)
    return array.view(complex)[:, 0] if array.ndim == 2 else array


def _read_blocks(values: list) -> tuple[list[int], list[int]]:
    """The atom indices of every block, one block after another, and the
    block sizes.  Lists of exact ints that fit an array index are taken as
    they are; anything else is read block by block, and the first bad block
    is named."""
    if set(map(type, values)) == {list}:
        atoms = list(chain.from_iterable(values))
        if set(map(type, atoms)) <= {int}:
            if max(map(abs, atoms), default=0) <= sys.maxsize:
                return atoms, list(map(len, values))
    blocks = []
    for b, blk in enumerate(values):
        if not isinstance(blk, list):
            raise ValidationError(
                f"spec field 'blocks[{b}]' must be a list of atom indices"
            )
        bad = [i for i in blk if not _is_integral(i)]
        if bad:
            raise ValidationError(
                f"spec field 'blocks[{b}]': atom index {bad[0]!r} is not an integer"
            )
        blk = [int(i) for i in blk]
        big = [i for i in blk if abs(i) > sys.maxsize]
        if big:
            raise ValidationError(
                f"spec field 'blocks[{b}]': an atom index of {big[0].bit_length()} "
                f"bits is out of range"
            )
        blocks.append(blk)
    return list(chain.from_iterable(blocks)), list(map(len, blocks))


def _is_integral(value: Any) -> bool:
    """An integer, or a float with an integral value (JSON writes ``2.0``
    for 2), but not a bool."""
    if isinstance(value, bool):
        return False
    return isinstance(value, Integral) or isinstance(value, float) and value.is_integer()


def _complex_pairs(z: np.ndarray) -> list[list[float]]:
    """The ``[re, im]`` pair of every value of a complex array, read from
    its float view."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2).tolist()


def _fields(record) -> dict:
    """A dataclass record's fields by name, in declaration order: a shallow
    copy of its instance dict, which holds the fields alone, as the
    generated ``__init__`` sets them (no record here sets anything else or
    uses slots), so nested values are shared rather than recursively
    copied as ``dataclasses.asdict`` does."""
    return vars(record).copy()


def _spec_fields(space: MeasureSpace, partition: Partition, u: Mfunc, w: Mfunc) -> dict:
    """An operator's spec-file fields ``weights``, ``blocks``, ``u`` and ``w``,
    with ``u`` and ``w`` as ``[re, im]`` pairs."""
    return {
        "weights": space.weights.tolist(),
        "blocks": list(map(list, partition.blocks)),
        "u": _complex_pairs(u.values),
        "w": _complex_pairs(w.values),
    }


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A classification problem: space, partition, symbols, parameters.

    ``from_dict`` reads a spec's lists straight into these objects, and
    their checks end the reading; ``to_dict`` writes the spec back."""

    space: MeasureSpace
    partition: Partition
    u: Mfunc
    w: Mfunc
    m_max: int = 4

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        if not isinstance(data, dict):
            raise ValidationError(
                f"spec must be a JSON object, got {type(data).__name__}"
            )
        known = {"weights", "blocks", "u", "w", "m_max"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(f"spec has unknown field(s): {', '.join(unknown)}")
        for name in ("weights", "blocks", "u", "w"):
            if name not in data:
                raise ValidationError(f"spec is missing required field '{name}'")
            if not isinstance(data[name], list) or not data[name]:
                raise ValidationError(f"spec field '{name}' must be a non-empty list")
        weights = _read_numbers(data["weights"], "weights", pairs=False)
        atoms, sizes = _read_blocks(data["blocks"])
        u = _read_numbers(data["u"], "u", pairs=True)
        w = _read_numbers(data["w"], "w", pairs=True)
        m_max = data.get("m_max", 4)
        if not _is_integral(m_max):
            raise ValidationError(
                f"spec field 'm_max' must be an integer, got {m_max!r}"
            )
        m_max = int(m_max)
        if m_max < 1:
            raise ValidationError(f"spec field 'm_max' must be >= 1, got {m_max}")
        space = make_space(weights)
        partition = Partition(atoms, sizes, space.atom_count)
        for name, values in (("u", u), ("w", w)):
            if values.size != space.atom_count:
                raise ValidationError(
                    f"spec field '{name}' has {values.size} values for "
                    f"{space.atom_count} atoms"
                )
        return cls(space, partition, Mfunc(u), Mfunc(w), m_max)

    @classmethod
    def from_file(cls, path: str) -> "ProblemSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ValidationError(f"cannot read spec file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"spec file {path} is not valid JSON (line {exc.lineno}): {exc.msg}"
            ) from exc
        except ValueError as exc:
            # not UTF-8, or an integer past the interpreter's digit limit
            raise ValidationError(f"spec file {path} cannot be read: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            **_spec_fields(self.space, self.partition, self.u, self.w),
            "m_max": self.m_max,
        }


# ---------------------------------------------------------------------------
# Reports


def _fmt_bool(flag: bool | None) -> str:
    if flag is None:
        return "n/a"
    return "yes" if flag else "no"


def _fmt_norm(norm: float | None) -> str:
    return "n/a" if norm is None else f"{norm:.6e}"


class _Report:
    """Base of the report dataclasses: the structured form is the fields,
    renamed through ``_keys``, with a nested report in its structured form."""

    _keys = {
        "symbol_rows": "symbols",
        "criteria_rows": "criteria",
        "instance_rows": "instances",
    }

    def to_dict(self) -> dict:
        return {
            self._keys.get(name, name): (
                value.to_dict() if isinstance(value, _Report) else value
            )
            for name, value in _fields(self).items()
        }


@dataclass
class ClassificationReport(_Report):
    """Full verdict set for one operator, with residual evidence."""

    atom_count: int
    block_count: int
    m_max: int
    matrix_route: bool
    symbol_rows: list[dict]
    criteria_rows: list[dict]
    normality: dict | None
    normal_case: dict | None
    spectrum: list[list[float]] | None
    spectrum_zeros: int | None
    essential_range: list[list[float]]
    spectrum_match: dict | None
    mismatches: list[dict]
    divergences: list[dict]

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatches)

    def render_text(self) -> str:
        lines = []
        lines.append(
            f"operator on {self.atom_count} atoms, {self.block_count} blocks "
            f"(matrix route: {_fmt_bool(self.matrix_route)})"
        )
        lines.append("")
        lines.append("block symbols:")
        lines.append(
            f"  {'block':>5}  {'mass':>12}  {'E(uw)':>24}  {'|E(uw)|^2':>12}  "
            f"{'E(|u|^2)':>12}  {'E(|w|^2)':>12}  {'product':>12}"
        )
        for row in self.symbol_rows:
            re, im = row["e_uw"]
            lines.append(
                f"  {row['block']:>5}  {row['mass']:>12.6g}  "
                f"{re:>11.6g}{im:>+11.6g}i  {row['t']:>12.6g}  "
                f"{row['e_u2']:>12.6g}  {row['e_w2']:>12.6g}  {row['product']:>12.6g}"
            )
        if self.criteria_rows:
            lines.append("")
            lines.append("criteria (literal vs corrected/oracle):")
            lines.append(
                f"  {'m':>3}  {'quasi lit':>10}  {'quasi corr':>11}  {'quasi oracle':>13}  "
                f"{'quasi resid':>13}  {'quasi norm':>13}  {'m-iso lit':>10}  "
                f"{'m-iso oracle':>13}  {'lit resid':>12}  {'defect norm':>13}  {'tol':>10}"
            )
            for row in self.criteria_rows:
                lines.append(
                    f"  {row['m']:>3}  {_fmt_bool(row['paper_quasi']):>10}  "
                    f"{_fmt_bool(row['corrected_quasi']):>11}  "
                    f"{_fmt_bool(row['oracle_quasi']):>13}  "
                    f"{row['quasi_residual']:>13.6e}  "
                    f"{_fmt_norm(row['oracle_quasi_norm']):>13}  "
                    f"{_fmt_bool(row['paper_m_iso']):>10}  "
                    f"{_fmt_bool(row['oracle_m_iso']):>13}  "
                    f"{row['m_iso_paper_residual']:>12.6e}  "
                    f"{_fmt_norm(row['oracle_defect_norm']):>13}  "
                    f"{row['tol']:>10.2e}"
                )
        if self.normality is not None:
            lines.append("")
            n = self.normality
            lines.append(
                f"normality: normal={_fmt_bool(n['normal'])} "
                f"(max block angle sine {n['residual']:.3e}, tol {n['tol']:g}), "
                f"the verdict of hyponormality and p-hyponormality too"
            )
        if self.spectrum_match is not None:
            sm = self.spectrum_match
            lines.append(
                f"spectrum vs E(uw), block by block: "
                f"match={_fmt_bool(sm['ok'])} (distance {sm['distance']:.3e} of |T|)"
            )
        if self.divergences:
            lines.append("")
            lines.append(f"literal-reading divergences: {len(self.divergences)}")
            for d in self.divergences:
                lines.append(
                    f"  m={d['m']} {d['kind']}: literal={_fmt_bool(d['paper_verdict'])} "
                    f"oracle={_fmt_bool(d['oracle_verdict'])} "
                    f"(literal residual {d['paper_residual']:.3e}, "
                    f"oracle norm {d['oracle_norm']:.3e})"
                )
        lines.append("")
        lines.append(f"corrected-vs-oracle mismatches: {len(self.mismatches)}")
        if not self.matrix_route:
            lines.append(
                f"note: matrix route skipped: {self.atom_count} atoms exceed the "
                f"dense-matrix limit of {MATRIX_LIMIT}; verdicts use the "
                f"symbol-level criteria"
            )
        return "\n".join(lines)


def _symbol_rows(ce: CondExp, st: SymbolTable) -> list[dict]:
    columns = zip(
        ce.partition.sizes.tolist(),
        ce.block_masses.tolist(),
        _complex_pairs(st.alpha),
        st.abs_alpha_sq.tolist(),
        st.beta.tolist(),
        st.gamma.tolist(),
        st.product.tolist(),
    )
    return [
        {
            "block": b,
            "atoms": size,
            "mass": mass,
            "e_uw": e_uw,
            "t": t,
            "e_u2": e_u2,
            "e_w2": e_w2,
            "product": product,
        }
        for b, (size, mass, e_uw, t, e_u2, e_w2, product) in enumerate(columns)
    ]


def classify_operator(
    space: MeasureSpace,
    partition: Partition,
    u: Mfunc,
    w: Mfunc,
    m_max: int = 4,
) -> ClassificationReport:
    """Classify ``f -> w E(u f)`` by both routes where feasible.

    Beyond ``MATRIX_LIMIT`` atoms only the symbol-level criteria run.  A
    mismatch row starts with the operator's spec fields, which ``wctops
    classify`` replays.
    """
    ce = CondExp(space, partition)
    use_matrix = space.atom_count <= MATRIX_LIMIT
    normality = normal_case = spec_list = spec_zeros = spectrum_match = None

    if use_matrix:
        # a bad order is named before either route can fail on the operator
        if m_max < 1:
            raise ValidationError(f"m_max must be >= 1, got {m_max}")
        st = symbols(ce, w, u)
        oracle = DefectOracle(wct_action(ce, w, u), partition)
        rows = audit_rows(st, m_max, oracle)
        mismatches, divergences = findings(rows)
        if mismatches:
            spec = _spec_fields(space, partition, u, w)
            mismatches = [{**spec, **row} for row in mismatches]
        normality = oracle.normality()
        nc = normal_case_equivalence(st, oracle, rows)
        if nc is not None:
            normal_case = {**_fields(nc), "properties": [_fields(c) for c in nc.properties]}
        spec_list = _complex_pairs(oracle.spectrum)
        spec_zeros = space.atom_count - partition.block_count
        dist = spectrum_deviation(oracle, st.alpha)
        spectrum_match = {"ok": dist <= 1e-8, "distance": dist}
    else:
        st = symbols(ce, w, u)
        rows, mismatches, divergences = audit_rows(st, m_max), [], []

    return ClassificationReport(
        atom_count=space.atom_count,
        block_count=partition.block_count,
        m_max=m_max,
        matrix_route=use_matrix,
        symbol_rows=_symbol_rows(ce, st),
        criteria_rows=[_fields(row) for row in rows],
        normality=normality,
        normal_case=normal_case,
        spectrum=spec_list,
        spectrum_zeros=spec_zeros,
        essential_range=[[z.real, z.imag] for z in essential_range(st.alpha)],
        spectrum_match=spectrum_match,
        mismatches=mismatches,
        divergences=divergences,
    )


def cmd_classify(spec: "ProblemSpec | str") -> ClassificationReport:
    """Classify the operator described by a problem spec (object or path)."""
    if isinstance(spec, str):
        spec = ProblemSpec.from_file(spec)
    return classify_operator(spec.space, spec.partition, spec.u, spec.w, spec.m_max)


# ---------------------------------------------------------------------------
# Stock examples


@dataclass
class ExampleAReport(_Report):
    """Unit-square grid example: measured curves against closed forms."""

    nx: int
    ny: int
    columns: list[dict]
    max_rel_err_e_u2: float
    max_rel_err_e_w2: float
    max_rel_err_t: float
    min_gap: float
    min_sqrt_residual: float
    classification: ClassificationReport

    @property
    def mismatch_count(self) -> int:
        return self.classification.mismatch_count

    def render_text(self) -> str:
        lines = [
            f"unit-square grid example, {self.nx} columns x {self.ny} rows",
            "",
            f"  {'x':>8}  {'E(|u|^2)':>11}  {'target':>10}  {'E(|w|^2)':>11}  "
            f"{'target':>10}  {'|E(uw)|^2':>11}  {'target':>10}  {'gap':>9}",
        ]
        for row in self.columns:
            lines.append(
                f"  {row['x']:>8.4f}  {row['e_u2']:>11.6f}  {row['e_u2_target']:>10.6f}  "
                f"{row['e_w2']:>11.6f}  {row['e_w2_target']:>10.6f}  "
                f"{row['t']:>11.6f}  {row['t_target']:>10.6f}  {row['gap']:>9.5f}"
            )
        lines.append("")
        lines.append(
            f"max relative errors: E(|u|^2) {self.max_rel_err_e_u2:.3e}, "
            f"E(|w|^2) {self.max_rel_err_e_w2:.3e}, |E(uw)|^2 {self.max_rel_err_t:.3e}"
        )
        # with one atom per column the gap is the roundoff of the products
        scale = max(row["product"] for row in self.columns)
        relation = "not equal" if self.min_gap > 1e-9 * scale else "equal to roundoff"
        lines.append(
            f"measured gap E(|u|^2)E(|w|^2) - |E(uw)|^2 stays >= {self.min_gap:.4f}: "
            f"the symbol product and |E(uw)|^2 are {relation} on this domain"
        )
        if self.min_sqrt_residual > 1e-9:
            lines.append(
                f"min over columns of ||E(uw)| - 1| = {self.min_sqrt_residual:.4f} > 0, "
                f"so the operator is not quasi-m-isometric for any m, hence not "
                f"m-isometric and not isometric"
            )
        else:
            lines.append(
                f"min over columns of ||E(uw)| - 1| = {self.min_sqrt_residual:.3e}"
            )
        lines.append("")
        lines.append(self.classification.render_text())
        return "\n".join(lines)


def cmd_example_a(
    nx: int = 20,
    ny: int = 1000,
    m_max: int = 4,
) -> ExampleAReport:
    """Grid example with ``u = y**(x/8)`` and ``w = sqrt((4+x) y)``.

    Both functions are evaluated from their factors on the grid's axes:
    ``u = exp((x/8) ln y)`` takes one ``log`` per row node and one ``exp``
    per atom, and ``w = sqrt(4+x) sqrt(y)`` one root per node and one
    product per atom.  Each atom value lies within a few ulp of
    ``y ** (x/8)`` and ``np.sqrt((4+x) * y)`` (2 ulp at most, measured on
    grids up to 100 x 10000).

    Per-column conditional moments are compared against the closed forms
    ``4/(4+x)``, ``(4+x)/2`` and ``64 (4+x)/(x+12)**2``.
    """
    grid = grid_space(nx, ny)
    xs = grid.xs
    # atom i*ny + j sits at (xs[i], ys[j]): the column factors broadcast
    # against the row factors give u and w in atom order, written through
    # an (nx, ny) view into the 1-D arrays that Mfunc then keeps with no copy
    x, y = xs[:, None], grid.ys
    u, w = np.empty(nx * ny), np.empty(nx * ny)
    grid_u = np.multiply(x / 8.0, np.log(y), out=u.reshape(nx, ny))
    np.exp(grid_u, out=grid_u)
    grid_w = np.multiply(np.sqrt(4.0 + x), np.sqrt(y), out=w.reshape(nx, ny))
    # the writable views go before the flags do, so nothing can write to
    # the arrays the functions keep
    del grid_u, grid_w
    u.setflags(write=False)
    w.setflags(write=False)
    u, w = Mfunc(u), Mfunc(w)
    report = classify_operator(grid.space, grid.partition, u, w, m_max=m_max)

    e_u2, e_w2, t, product = (
        np.array([row[key] for row in report.symbol_rows])
        for key in ("e_u2", "e_w2", "t", "product")
    )
    cu = 4.0 / (4.0 + xs)
    cw = (4.0 + xs) / 2.0
    ct = 64.0 * (4.0 + xs) / (xs + 12.0) ** 2
    gap = product - t

    columns = [
        {
            "x": float(xs[i]),
            "e_u2": float(e_u2[i]),
            "e_u2_target": float(cu[i]),
            "e_w2": float(e_w2[i]),
            "e_w2_target": float(cw[i]),
            "t": float(t[i]),
            "t_target": float(ct[i]),
            "product": float(product[i]),
            "gap": float(gap[i]),
            "sqrt_residual": float(abs(np.sqrt(t[i]) - 1.0)),
        }
        for i in range(nx)
    ]
    return ExampleAReport(
        nx=nx,
        ny=ny,
        columns=columns,
        max_rel_err_e_u2=float(np.abs(e_u2 / cu - 1.0).max()),
        max_rel_err_e_w2=float(np.abs(e_w2 / cw - 1.0).max()),
        max_rel_err_t=float(np.abs(t / ct - 1.0).max()),
        min_gap=float(gap.min()),
        min_sqrt_residual=float(np.abs(np.sqrt(t) - 1.0).min()),
        classification=report,
    )


@dataclass
class ExampleBReport(_Report):
    """Geometric sequence example with ``w(n) = n`` and ``u(n) = 1/n``."""

    p: float
    n_atoms: int
    tail_mass: float
    alphas: list[dict]
    max_alpha_deviation: float
    classification: ClassificationReport

    @property
    def mismatch_count(self) -> int:
        return self.classification.mismatch_count

    def render_text(self) -> str:
        lines = [
            f"geometric sequence example: p={self.p:g}, n=1..{self.n_atoms} "
            f"(truncation tail mass {self.tail_mass:.3e})",
            "block averages of u*w (both should equal 1):",
        ]
        for a in self.alphas:
            re, im = a["value"]
            lines.append(
                f"  block {a['block']} ({a['description']}): "
                f"{re:.15f}{im:+.1e}i  (|value - 1| = {a['deviation']:.3e})"
            )
        lines.append("")
        lines.append(self.classification.render_text())
        return "\n".join(lines)


def cmd_example_b(
    p: float = 0.5,
    n_atoms: int = 60,
    m_max: int = 6,
) -> ExampleBReport:
    """Geometric space example; the product ``u*w`` is identically 1."""
    geo = geometric_space(p, n_atoms)
    n = geo.n.astype(float)
    u = Mfunc(1.0 / n)
    w = Mfunc(n)
    report = classify_operator(geo.space, geo.partition, u, w, m_max=m_max)
    descriptions = ["n divisible by 3", "n not divisible by 3"]
    alphas = [
        {
            "block": row["block"],
            "description": descriptions[row["block"]],
            "value": row["e_uw"],
            "deviation": abs(complex(*row["e_uw"]) - 1.0),
        }
        for row in report.symbol_rows
    ]
    return ExampleBReport(
        p=p,
        n_atoms=n_atoms,
        tail_mass=geo.tail_mass,
        alphas=alphas,
        max_alpha_deviation=max(a["deviation"] for a in alphas),
        classification=report,
    )


# ---------------------------------------------------------------------------
# Random instances and the agreement suite


@dataclass(frozen=True, eq=False)
class Instance:
    """One randomly generated (or fixed) classification problem."""

    label: str
    stratum: str
    space: MeasureSpace
    partition: Partition
    u: Mfunc
    w: Mfunc

    def cond_exp(self) -> CondExp:
        return CondExp(self.space, self.partition)


def _random_mfunc(rng: np.random.Generator, n: int) -> Mfunc:
    mag = rng.uniform(0.0, 2.0, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    return Mfunc(mag * np.exp(1j * phase))


def _random_blocks(
    rng: np.random.Generator, dim: int, n_blocks: int
) -> list[tuple[int, ...]]:
    perm = rng.permutation(dim)
    if n_blocks == 1:
        return [tuple(int(i) for i in perm)]
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False))
    pieces = np.split(perm, cuts)
    return [tuple(int(i) for i in piece) for piece in pieces]


def random_instance(
    rng: np.random.Generator,
    dim_range: tuple[int, int] = (2, 10),
    block_range: tuple[int, int] = (1, 4),
    stratum: str | None = None,
    label: str = "",
) -> Instance:
    """Draw a random instance, stratified to hit the interesting classes.

    With no explicit stratum: probability 1/4 each for the quasi stratum
    (``|E(uw)|`` normalized to 1 on the joint support) and the unimodular
    stratum (singleton partition, ``|u w| = 1``), else generic.  Raises
    ``ValidationError``, before anything is drawn, when the fewest blocks
    of ``block_range`` exceed the fewest atoms of ``dim_range``, and when
    500 draws of the quasi stratum all leave some block average of ``u w``
    too close to zero, which becomes likely past a few hundred atoms.
    """
    if block_range[0] > dim_range[0]:
        raise ValidationError(
            f"block count range {block_range[0]}:{block_range[1]} starts above "
            f"the atom count range {dim_range[0]}:{dim_range[1]}: "
            f"{dim_range[0]} atoms cannot form {block_range[0]} blocks"
        )
    dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
    weights = rng.uniform(0.2, 2.0, dim)
    space = make_space(weights)
    if stratum is None:
        roll = rng.random()
        stratum = "quasi" if roll < 0.25 else "unimodular" if roll < 0.5 else "generic"

    if stratum == "unimodular":
        partition = make_partition(space, singleton_blocks(dim))
        mag = rng.uniform(0.5, 2.0, dim)
        u_vals = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim))
        w_vals = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim)) / u_vals
        return Instance(label, stratum, space, partition, Mfunc(u_vals), Mfunc(w_vals))

    n_blocks = int(rng.integers(block_range[0], min(block_range[1], dim) + 1))
    blocks = _random_blocks(rng, dim, n_blocks)
    partition = make_partition(space, blocks)
    if stratum == "generic":
        return Instance(
            label,
            stratum,
            space,
            partition,
            _random_mfunc(rng, dim),
            _random_mfunc(rng, dim),
        )

    # quasi stratum: redraw until every block average of u*w is safely
    # nonzero (keeps the normalizing scale below 5), then scale u per
    # block so |E(uw)| is exactly 1
    ce = CondExp(space, partition)
    for _ in range(500):
        u = _random_mfunc(rng, dim)
        w = _random_mfunc(rng, dim)
        c = block_averages(ce, u.values * w.values)
        if np.abs(c).min() > 0.2:
            break
    else:
        raise ValidationError(
            f"could not draw a quasi-stratum instance with {dim} atoms in "
            f"{n_blocks} blocks: no draw of u, w in 500 kept every block "
            f"average of u*w above 0.2 in modulus; use fewer blocks or "
            f"fewer atoms"
        )
    scale = np.abs(c)[partition.block_index]
    u = Mfunc(u.values / scale)
    return Instance(label, stratum, space, partition, u, w)


def fixture_projection() -> Instance:
    """The averaging projection itself: u = w = 1 on a two-block space."""
    space = make_space([0.25, 0.25, 0.25, 0.25])
    partition = make_partition(space, [[0, 1], [2, 3]])
    ones = Mfunc(np.ones(4))
    return Instance("projection", "fixture", space, partition, ones, ones)


def fixture_support_gap() -> Instance:
    """Symbols vanish on one block: |E(uw)| = 1 only on the joint support."""
    space = make_space([0.25, 0.25, 0.25, 0.25])
    partition = make_partition(space, [[0, 1], [2, 3]])
    u = Mfunc(np.array([1.0, 1.0, 0.0, 0.0]))
    w = Mfunc(np.array([2.0, 0.0, 0.0, 0.0]))
    return Instance("support-gap", "fixture", space, partition, u, w)


def suite_instances(
    count: int,
    dim_range: tuple[int, int] = (2, 10),
    block_range: tuple[int, int] = (1, 4),
    seed: int = 42,
) -> list[Instance]:
    """The two adversarial fixtures followed by ``count`` random instances."""
    rng = np.random.default_rng(seed)
    instances = [fixture_projection(), fixture_support_gap()]
    for i in range(count):
        instances.append(
            random_instance(rng, dim_range, block_range, label=f"random-{i}")
        )
    return instances


@dataclass
class SuiteReport(_Report):
    """Aggregate of the randomized agreement audit."""

    count: int
    seed: int
    m_max: int
    instance_rows: list[dict]
    mismatch_count: int
    mismatches: list[dict]
    divergence_stats: dict
    stratum_counts: dict

    def render_text(self) -> str:
        lines = [
            f"agreement suite: {self.count} random instances + 2 fixtures "
            f"(seed {self.seed}, m = 1..{self.m_max})",
            f"strata: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.stratum_counts.items())),
            f"corrected-vs-oracle mismatches: {self.mismatch_count}",
            "literal-reading divergences: "
            + ", ".join(
                f"{k}: {v} instance(s)" for k, v in sorted(self.divergence_stats.items())
            ),
        ]
        for row in self.instance_rows:
            if row["divergences"] or row["mismatches"]:
                lines.append(
                    f"  [{row['index']}] {row['label']} ({row['stratum']}, "
                    f"dim {row['dim']}, {row['blocks']} blocks): "
                    f"mismatches={row['mismatches']}, "
                    f"divergences={row['divergences']}"
                )
        return "\n".join(lines)


def cmd_random_suite(
    count: int = 200,
    dim_range: tuple[int, int] = (2, 10),
    block_range: tuple[int, int] = (1, 4),
    seed: int = 42,
    m_max: int = 4,
) -> SuiteReport:
    """Audit criteria against the defect oracle on a randomized suite."""
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    instances = suite_instances(count, dim_range, block_range, seed)
    rows = []
    mismatches: list[dict] = []
    stratum_counts: dict[str, int] = {}
    div_instances = {"quasi": 0, "m_isometry": 0}
    for idx, inst in enumerate(instances):
        stratum_counts[inst.stratum] = stratum_counts.get(inst.stratum, 0) + 1
        ce = inst.cond_exp()
        st = symbols(ce, inst.w, inst.u)
        oracle = DefectOracle(wct_action(ce, inst.w, inst.u), inst.partition)
        found, divergences = findings(audit_rows(st, m_max, oracle))
        kinds = sorted({d["kind"] for d in divergences})
        for kind in kinds:
            div_instances[kind] = div_instances.get(kind, 0) + 1
        rows.append(
            {
                "index": idx,
                "label": inst.label,
                "stratum": inst.stratum,
                "dim": inst.space.atom_count,
                "blocks": inst.partition.block_count,
                "mismatches": len(found),
                "divergences": kinds,
            }
        )
        if found:
            spec = _spec_fields(inst.space, inst.partition, inst.u, inst.w)
            mismatches.extend({"index": idx, "label": inst.label, **spec, **row} for row in found)
    return SuiteReport(
        count=count,
        seed=seed,
        m_max=m_max,
        instance_rows=rows,
        mismatch_count=len(mismatches),
        mismatches=mismatches,
        divergence_stats=div_instances,
        stratum_counts=stratum_counts,
    )


@dataclass
class SweepReport(_Report):
    """Defect and sandwiched-defect norms as the order grows."""

    m_max: int
    rows: list[dict]

    def render_text(self) -> str:
        lines = [
            f"  {'m':>3}  {'defect norm':>16}  {'quasi defect norm':>18}",
        ]
        for row in self.rows:
            lines.append(
                f"  {row['m']:>3}  {row['defect_norm']:>16.8e}  "
                f"{row['quasi_defect_norm']:>18.8e}"
            )
        return "\n".join(lines)


def cmd_sweep_m(spec: "ProblemSpec | str", m_max: int = 6) -> SweepReport:
    """Tabulate defect norms for m = 1..m_max for a problem spec."""
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    if isinstance(spec, str):
        spec = ProblemSpec.from_file(spec)
    T = wct_action(CondExp(spec.space, spec.partition), spec.w, spec.u)
    dn, qn = DefectOracle(T, spec.partition).defect_norms(m_max)
    rows = [
        {"m": m, "defect_norm": d, "quasi_defect_norm": q}
        for m, (d, q) in enumerate(zip(dn.tolist(), qn.tolist()), start=1)
    ]
    return SweepReport(m_max=m_max, rows=rows)


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ValidationError(f"{flag} expects LO:HI, got {text!r}") from exc
    if lo_i < 1 or hi_i < lo_i:
        raise ValidationError(f"{flag} range {text!r} is not a valid LO:HI")
    return lo_i, hi_i


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wctops",
        description=(
            "Classify weighted conditional type operators on finite atomic "
            "measure spaces by defect operators and symbol-level criteria."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, m_max_default: str) -> None:
        p.add_argument(
            "--m-max", type=int, default=None, help=f"largest order m (default: {m_max_default})"
        )
        p.add_argument("--out", default=None, help="write structured report to this path")
        p.add_argument(
            "--format",
            choices=("table", "structured"),
            default="table",
            help="stdout format",
        )

    p_classify = sub.add_parser("classify", help="classify an operator from a spec file")
    p_classify.add_argument("spec", help="path to a JSON problem spec")
    add_common(p_classify, "the spec's m_max")

    p_a = sub.add_parser("example-a", help="unit-square grid example")
    p_a.add_argument("--nx", type=int, default=20)
    p_a.add_argument("--ny", type=int, default=1000)
    add_common(p_a, "4")

    p_b = sub.add_parser("example-b", help="geometric sequence example")
    p_b.add_argument("--p", type=float, default=0.5)
    p_b.add_argument("--n-atoms", type=int, default=60)
    add_common(p_b, "6")

    p_suite = sub.add_parser("random-suite", help="randomized agreement audit")
    p_suite.add_argument("--count", type=int, default=200)
    p_suite.add_argument("--dims", default="2:10", help="atom count range LO:HI")
    p_suite.add_argument("--blocks", default="1:4", help="block count range LO:HI")
    p_suite.add_argument("--seed", type=int, default=42)
    add_common(p_suite, "4")

    p_sweep = sub.add_parser("sweep-m", help="defect norms for m = 1..m_max")
    p_sweep.add_argument("spec", help="path to a JSON problem spec")
    add_common(p_sweep, "6")

    return parser


def _dispatch(args: argparse.Namespace):
    # without --m-max each subcommand keeps its own default order
    m_max = {} if args.m_max is None else {"m_max": args.m_max}
    if args.command == "sweep-m":
        return cmd_sweep_m(args.spec, **m_max)
    if args.command == "classify":
        return cmd_classify(replace(ProblemSpec.from_file(args.spec), **m_max))
    if args.command == "example-a":
        return cmd_example_a(args.nx, args.ny, **m_max)
    if args.command == "example-b":
        return cmd_example_b(args.p, args.n_atoms, **m_max)
    if args.command == "random-suite":
        dims = _parse_range(args.dims, "--dims")
        blocks = _parse_range(args.blocks, "--blocks")
        return cmd_random_suite(args.count, dims, blocks, args.seed, **m_max)
    raise ValidationError(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = _dispatch(args)
    except (ValidationError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, NumericError) else 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2
    structured = None
    if args.out or args.format == "structured":
        structured = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(structured + "\n")
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
            return 2
    try:
        print(structured if args.format == "structured" else report.render_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone (``| head``): send the unwritten rest
        # to devnull, so that the interpreter's final flush succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if getattr(report, "mismatch_count", 0) > 0:
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
