"""End-to-end acceptance checks.

Each test pins one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s``); the test
fails if any sub-check inside the criterion fails.
"""

import time

import numpy as np
import pytest

import dense_reference
from conftest import cond_exp, core_defects, core_matrices, defect_evals, dense, wct_oracle
from wctops import (
    CondExp,
    Mfunc,
    audit_rows,
    geometric_space,
    make_partition,
    make_space,
    normal_case_equivalence,
    singleton_blocks,
    spectrum_deviation,
    symbols,
    wct_action,
)
from wctops.cli import (
    cmd_example_a,
    random_instance,
    suite_instances,
)
from wctops.criteria import findings
from conftest import audit


def _report(name: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"{status} {name}{timing}")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures[:10])


@pytest.fixture(scope="module")
def audited_suite():
    """The 200-instance randomized suite plus fixtures, audited once."""
    instances = suite_instances(200, dim_range=(2, 10), block_range=(1, 4), seed=42)
    audits = [audit(inst.cond_exp(), inst.w, inst.u, 4) for inst in instances]
    return instances, audits


def test_criterion_1_geometric_sequence_reproduction():
    failures = []
    start = time.perf_counter()
    geo = geometric_space(0.5, 60)
    n = geo.n.astype(float)
    u = Mfunc(1.0 / n)
    w = Mfunc(n)
    ce = CondExp(geo.space, geo.partition)
    e_uw = cond_exp(ce, u.values * w.values)
    dev = np.abs(e_uw - 1.0).max()
    if dev > 1e-12:
        failures.append(f"E(uw) deviates from 1 by {dev:.3e}")
    dn, qn = wct_oracle(ce, w, u).defect_norms(6)
    for m in range(1, 7):
        if qn[m - 1] > 1e-9:
            failures.append(f"quasi defect norm {qn[m - 1]:.3e} at m={m}")
    d1 = dn[0]
    if d1 <= 0.1:
        failures.append(f"defect norm {d1:.3e} not > 0.1")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report("criterion-1 geometric-sequence reproduction", failures, elapsed)


def test_criterion_2_grid_reproduction():
    failures = []
    start = time.perf_counter()
    report = cmd_example_a(20, 1000, m_max=4)
    if report.max_rel_err_e_u2 > 1e-3:
        failures.append(f"E(|u|^2) relative error {report.max_rel_err_e_u2:.3e}")
    if report.max_rel_err_e_w2 > 1e-3:
        failures.append(f"E(|w|^2) relative error {report.max_rel_err_e_w2:.3e}")
    if report.max_rel_err_t > 1e-3:
        failures.append(f"|E(uw)|^2 relative error {report.max_rel_err_t:.3e}")
    for col in report.columns:
        if abs(col["product"] - 2.0) > 1e-3 * 2.0:
            failures.append(f"product {col['product']} at x={col['x']}")
        if col["t"] >= 2.0:
            failures.append(f"|E(uw)|^2 = {col['t']} not strictly below 2")
    if report.min_sqrt_residual < 0.05:
        failures.append(f"min ||E(uw)|-1| = {report.min_sqrt_residual:.3e} < 0.05")
    if report.min_gap < 0.1:
        failures.append(f"measured equality gap {report.min_gap:.3e} < 0.1")
    for row in report.classification.criteria_rows:
        if row["corrected_quasi"] or row["paper_quasi"]:
            failures.append(f"quasi verdict unexpectedly true at m={row['m']}")
        if row["oracle_m_iso"] is not False:
            failures.append(f"non-m-isometry not concluded at m={row['m']}")
    rendered = report.render_text()
    if "gap" not in rendered or "not quasi-m-isometric" not in rendered:
        failures.append("report text lacks the gap measurement or the conclusion")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 60s")
    _report("criterion-2 unit-square-grid reproduction", failures, elapsed)


def _mult_oracle(space, u):
    """The oracle of the multiplication operator ``M_u``: singleton blocks
    and ``w = 1``."""
    dim = space.atom_count
    ce = CondExp(space, make_partition(space, singleton_blocks(dim)))
    return wct_oracle(ce, Mfunc(np.ones(dim)), u)


def test_criterion_3_multiplication_operators():
    failures = []
    rng = np.random.default_rng(2024)

    for trial in range(100):
        dim = int(rng.integers(2, 17))
        space = make_space(rng.uniform(0.1, 2.0, dim))
        u = Mfunc(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))
        dn, _ = _mult_oracle(space, u).defect_norms(4)
        for m in range(1, 5):
            if dn[m - 1] > 1e-10:
                failures.append(f"unimodular trial {trial}: defect {dn[m - 1]:.3e} at m={m}")

    for trial in range(100):
        dim = int(rng.integers(2, 17))
        space = make_space(rng.uniform(0.1, 2.0, dim))
        mask = rng.integers(0, 2, dim).astype(float)
        u = Mfunc(mask * np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))
        dn, qn = _mult_oracle(space, u).defect_norms(4)
        for m in range(1, 5):
            if qn[m - 1] > 1e-10:
                failures.append(f"mask trial {trial}: quasi defect {qn[m - 1]:.3e} at m={m}")
            if (mask == 0).any() and dn[m - 1] <= 1e-10:
                failures.append(f"mask trial {trial}: defect vanished at m={m}")

    for trial in range(100):
        dim = int(rng.integers(2, 17))
        space = make_space(rng.uniform(0.1, 2.0, dim))
        u = Mfunc(
            rng.uniform(0, 2, dim) * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
        )
        oracle = _mult_oracle(space, u)
        a2 = np.abs(u.values) ** 2
        for m in range(1, 5):
            # the defect spectra against the pointwise closed forms
            # (|u|^2 - 1)^m and |u|^2 (|u|^2 - 1)^m
            iso_dev = np.abs(defect_evals(oracle, m) - np.sort((a2 - 1.0) ** m)).max()
            quasi_dev = np.abs(
                defect_evals(oracle, m, quasi=True) - np.sort(a2 * (a2 - 1.0) ** m)
            ).max()
            if iso_dev > 1e-9:
                failures.append(
                    f"generic trial {trial}: iso spectra deviate {iso_dev:.3e} at m={m}"
                )
            if quasi_dev > 1e-9:
                failures.append(
                    f"generic trial {trial}: quasi spectra deviate {quasi_dev:.3e} at m={m}"
                )
    _report("criterion-3 multiplication operators", failures)


def test_criterion_4_quasi_criterion_oracle_equivalence(audited_suite):
    instances, audits = audited_suite
    failures = []
    quasi_divergent = []
    for inst, rows in zip(instances, audits):
        for row in rows:
            if row.corrected_quasi != row.oracle_quasi:
                failures.append(
                    f"{inst.label}: corrected {row.corrected_quasi} vs "
                    f"oracle {row.oracle_quasi} at m={row.m}"
                )
        mismatches, divergences = findings(rows)
        if mismatches:
            failures.append(f"{inst.label}: {len(mismatches)} mismatch records")
        if any(d["kind"] == "quasi" for d in divergences):
            quasi_divergent.append(inst.label)
    if quasi_divergent != ["support-gap"]:
        failures.append(f"quasi divergences on {quasi_divergent}")
    gap_audit = audits[instances.index(next(i for i in instances if i.label == "support-gap"))]
    for row in gap_audit:
        if row.paper_quasi or not row.oracle_quasi:
            failures.append(
                f"support-gap at m={row.m}: literal {row.paper_quasi}, "
                f"oracle {row.oracle_quasi}"
            )
    _report("criterion-4 quasi criterion oracle equivalence", failures)


def test_criterion_5_m_isometry_criterion_audit(audited_suite):
    instances, audits = audited_suite
    failures = []
    m_iso_divergent = []
    for inst, rows in zip(instances, audits):
        for row in rows:
            # a failed criterion must imply a failed oracle, no exceptions
            if not row.paper_m_iso and row.oracle_m_iso:
                failures.append(
                    f"{inst.label}: criterion false but oracle true at m={row.m}"
                )
        if any(d["kind"] == "m_isometry" for d in findings(rows)[1]):
            m_iso_divergent.append(inst.label)
        if inst.partition.block_count == inst.space.atom_count:
            for row in rows:
                if row.paper_m_iso != row.oracle_m_iso:
                    failures.append(
                        f"{inst.label}: singleton partition disagreement at m={row.m}"
                    )
    if m_iso_divergent != ["projection"]:
        failures.append(f"m-isometry divergences on {m_iso_divergent}")

    # extra singleton-partition instances, generic symbols
    rng = np.random.default_rng(515)
    for trial in range(30):
        dim = int(rng.integers(2, 9))
        space = make_space(rng.uniform(0.2, 2.0, dim))
        partition = make_partition(space, singleton_blocks(dim))
        u = Mfunc(rng.uniform(0, 2, dim) * np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))
        w = Mfunc(rng.uniform(0, 2, dim) * np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))
        for row in audit(CondExp(space, partition), w, u, 4):
            if row.paper_m_iso != row.oracle_m_iso:
                failures.append(
                    f"extra singleton trial {trial}: disagreement at m={row.m}"
                )
    _report("criterion-5 m-isometry criterion audit", failures)


def _self_adjoint_instances(count: int, seed: int):
    """Self-adjoint instances whose verdicts are decidable at tol 1e-8.

    A symbol value within ~1% of 1 makes the order-m residual, a degree-m
    polynomial of the deviation, dip below a fixed tolerance at large m
    while staying above it at m = 1; such draws are rejected so the
    boolean comparison is well posed.  A few exactly-unitary instances are
    appended so the all-true direction is exercised as well.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count - 10:
        inst = random_instance(rng, (2, 10), (1, 4), stratum="generic")
        u = inst.u
        w = Mfunc(u.values.conj())
        ce = inst.cond_exp()
        st = symbols(ce, w, u)
        t = st.abs_alpha_sq
        if np.abs(t - 1.0).min() < 0.05:
            continue
        out.append((ce, st, u, w))
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        space = make_space(rng.uniform(0.2, 2.0, dim))
        partition = make_partition(space, singleton_blocks(dim))
        u = Mfunc(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))
        w = Mfunc(u.values.conj())
        ce = CondExp(space, partition)
        out.append((ce, symbols(ce, w, u), u, w))
    return out


def test_criterion_6_normal_case_properties():
    failures = []
    all_true_seen = 0
    for trial, (ce, st, u, w) in enumerate(_self_adjoint_instances(100, seed=606)):
        oracle = wct_oracle(ce, w, u)

        idx = ce.partition.block_index
        prod = st.beta[idx] * st.gamma[idx]
        identity_dev = np.abs(prod - st.abs_alpha_sq[idx]).max()
        if identity_dev > 1e-8:
            failures.append(f"trial {trial}: symbol identity off by {identity_dev:.3e}")

        report = normal_case_equivalence(st, oracle, audit_rows(st, 4, oracle))
        if report is None:
            failures.append(f"trial {trial}: self-adjoint operator not normal")
            continue
        if not report.all_equal:
            failures.append(
                f"trial {trial}: five-way equivalence broken: "
                + ", ".join(f"{c.name}={c.holds}" for c in report.properties)
            )
        elif report.properties[0].holds:
            all_true_seen += 1

        # the dense reference's norm of T* T - I, to the power m
        t = dense(ce, w, u)
        base_norm = dense_reference.norm(t.conj().T @ t - np.eye(len(t)))
        defect_norms = oracle.defect_norms(4)[0]
        for m in range(1, 5):
            dn = defect_norms[m - 1]
            ref = base_norm**m
            if dn <= 1e-12 and ref <= 1e-12:
                continue  # both at the roundoff floor
            if abs(dn - ref) > 1e-6 * max(ref, dn):
                failures.append(
                    f"trial {trial}: defect norm {dn:.6e} vs collapse {ref:.6e} at m={m}"
                )
    if all_true_seen < 10:
        failures.append(f"only {all_true_seen} all-true instances exercised")
    _report("criterion-6 normal-case properties", failures)


def test_criterion_7_hyponormality_hierarchy():
    # on a finite space p-hyponormal, hyponormal and normal coincide: the
    # dense reference's hyponormal reading and its p-readings, each over its
    # own scale |T|^(2p), agree with the oracle's one normality verdict
    failures = []
    rng = np.random.default_rng(707)
    exponents = (0.25, 0.5, 2.0)
    for trial in range(100):
        inst = random_instance(rng, (2, 10), (1, 4), stratum="generic")
        if trial % 2 == 0:
            u, w = inst.u, Mfunc(inst.u.values.conj())  # self-adjoint: all flags true
        else:
            u, w = inst.u, inst.w
        normal = wct_oracle(inst.cond_exp(), w, u).normality()["normal"]
        ref = dense_reference.oracle(dense(inst.cond_exp(), w, u), 0, exponents)
        readings = [
            ref["hyponormal_residual"] / ref["norm"] ** 2,
            *(r / ref["norm"] ** (2 * p) for p, r in zip(exponents, ref["p_residuals"])),
        ]
        flags = [normal, *(r <= 1e-8 for r in readings)]
        if len(set(flags)) != 1:
            failures.append(f"trial {trial}: hierarchy split {flags}")
    _report("criterion-7 hyponormality hierarchy", failures)


def test_criterion_8_structural_invariants(audited_suite):
    instances, _ = audited_suite
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    random_part = [inst for inst in instances if inst.stratum != "fixture"]
    assert len(random_part) == 200
    for inst in random_part:
        ce = inst.cond_exp()
        weights = ce.space.weights
        dim = ce.space.atom_count
        u, w = inst.u, inst.w

        # conditional expectation property suite
        f = Mfunc(
            rng.uniform(0, 2, dim) * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
        )
        ef = cond_exp(ce, f)
        if np.abs(cond_exp(ce, ef) - ef).max() > 1e-12:
            failures.append(f"{inst.label}: idempotence")
        for b, blk in enumerate(ce.partition.blocks):
            idx = list(blk)
            gap = abs((ef[idx] * weights[idx]).sum() - (f.values[idx] * weights[idx]).sum())
            if gap > 1e-12:
                failures.append(f"{inst.label}: averaging identity on block {b}")
        g_vals = rng.normal(size=ce.partition.block_count)
        g = g_vals[ce.partition.block_index]
        if np.abs(cond_exp(ce, f.values * g) - g * ef).max() > 1e-12:
            failures.append(f"{inst.label}: module law")
        e_f2 = cond_exp(ce, np.abs(f.values) ** 2)
        e_u2 = cond_exp(ce, np.abs(u.values) ** 2)
        slack = 1e-10 * max(1.0, float((e_f2 * e_u2).max()))
        if (np.abs(cond_exp(ce, f.values * u.values.conj())) ** 2 > e_f2 * e_u2 + slack).any():
            failures.append(f"{inst.label}: conditional Hoelder")
        if (cond_exp(ce, np.abs(f.values) + 0.05) <= 0).any():
            failures.append(f"{inst.label}: positivity")

        # operator-level identities: T^k = M_(E(uw)^(k-1)) T on the matrix
        # of the action, and the binomial recursion of the reference's B_m on
        # the oracle's cores, whose norms are the oracle's defect norms
        t = wct_action(ce, w, u).apply(np.eye(dim, dtype=complex))
        oracle = wct_oracle(ce, w, u)
        nrm = oracle.norm
        e_uw = cond_exp(ce, u.values * w.values)
        for k in range(1, 6):
            factor = e_uw ** (k - 1)
            dev = np.abs(np.linalg.matrix_power(t, k) - factor[:, None] * t).max()
            if dev > 1e-9 * max(1.0, nrm**k):
                failures.append(f"{inst.label}: power factorization k={k}")
        core = core_matrices(oracle)
        core_adj = core.conj().swapaxes(-1, -2)
        defects = [core_defects(oracle, m) for m in range(1, 6)]
        dn, qn = oracle.defect_norms(6)
        for m in range(2, 6):
            prev, cur = defects[m - 2], defects[m - 1]
            dev = np.abs(cur - (core_adj @ prev @ core - prev)).max()
            if dev > 1e-9 * max(1.0, nrm ** (2 * m)):
                failures.append(f"{inst.label}: binomial recursion m={m}")
            if abs(dn[m - 1] - np.abs(np.linalg.eigvalsh(cur)).max()) > 1e-9 * max(
                1.0, nrm ** (2 * m)
            ):
                failures.append(f"{inst.label}: defect norm m={m}")

        # vanishing sandwiched defect at order 2 persists to higher orders
        tol2 = 1e-9 * max(1.0, nrm**4)
        if qn[1] <= tol2:
            for m in range(3, 7):
                if qn[m - 1] > 1e-9 * max(1.0, nrm ** (2 * m)):
                    failures.append(f"{inst.label}: quasi persistence m={m}")

        # each block's eigenvalue equals its conditional value E(uw)_b
        dist = spectrum_deviation(oracle, symbols(ce, w, u).alpha)
        if not dist <= 1e-8:
            failures.append(f"{inst.label}: spectrum mismatch distance {dist:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 120s")
    _report("criterion-8 structural invariants", failures, elapsed)
