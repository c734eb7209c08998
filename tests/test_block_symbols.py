"""The per-block symbol engine: block arrays against summation and loop
references, partition faults at scale, call counts, and the symmetries
that leave ``T`` unchanged."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import wctops.cli as cli_mod
import wctops.condexp as condexp_mod
import wctops.criteria as criteria_mod
from wctops import (
    CondExp,
    DefectOracle,
    Mfunc,
    ValidationError,
    essential_range,
    grid_space,
    make_partition,
    make_space,
    spectrum_deviation,
    symbols,
    wct_action,
)
from wctops.cli import (
    classify_operator,
    cmd_example_a,
    cmd_example_b,
    fixture_support_gap,
    main,
    random_instance,
    suite_instances,
)
from conftest import dense


def _fsum_averages(ce, f):
    """Per-block mass-weighted averages by exactly rounded summation."""
    mu = ce.space.weights
    out = []
    for blk in ce.partition.blocks:
        mass = math.fsum(mu[i] for i in blk)
        re = math.fsum(f[i].real * mu[i] for i in blk) / mass
        im = math.fsum(f[i].imag * mu[i] for i in blk) / mass
        scale = math.fsum(abs(f[i]) * mu[i] for i in blk) / mass
        out.append((complex(re, im), scale))
    return out


def test_block_symbols_match_fsum_reference():
    for inst in suite_instances(200, seed=42):
        ce = inst.cond_exp()
        st = symbols(ce, inst.w, inst.u)
        u, w = inst.u.values, inst.w.values
        columns = (
            (st.alpha, u * w),
            (st.beta, np.abs(u) ** 2),
            (st.gamma, np.abs(w) ** 2),
        )
        for got, f in columns:
            for b, (ref, scale) in enumerate(_fsum_averages(ce, f)):
                # relative to the block average of |f|, which bounds the
                # rounding error of any summation order
                assert abs(got[b] - ref) <= 1e-13 * scale, (inst.label, b)
        assert np.array_equal(st.abs_alpha_sq, np.abs(st.alpha) ** 2)


def _exact_symbols(inst):
    """``E(uw)`` as its real and imaginary parts, ``|E(uw)|^2``, ``E|u|^2``
    and ``E|w|^2`` on every block, as the exact rationals of the given
    doubles."""
    mu = [Fraction(x) for x in inst.space.weights.tolist()]
    u = [(Fraction(z.real), Fraction(z.imag)) for z in inst.u.values.tolist()]
    w = [(Fraction(z.real), Fraction(z.imag)) for z in inst.w.values.tolist()]
    for blk in inst.partition.blocks:
        mass = sum(mu[i] for i in blk)

        def average(term):
            return sum(term(u[i], w[i]) * mu[i] for i in blk) / mass

        re = average(lambda a, c: a[0] * c[0] - a[1] * c[1])
        im = average(lambda a, c: a[0] * c[1] + a[1] * c[0])
        beta = average(lambda a, c: a[0] ** 2 + a[1] ** 2)
        gamma = average(lambda a, c: c[0] ** 2 + c[1] ** 2)
        yield re, im, re * re + im * im, beta, gamma


def test_block_symbols_match_exact_rationals():
    # every double is a dyadic rational, so the symbols of the given doubles
    # have exact values; each float symbol lies within 8 eps of its own
    bound = (8 * Fraction(np.finfo(float).eps)) ** 2
    for inst in suite_instances(200, seed=42):
        st = symbols(inst.cond_exp(), inst.w, inst.u)
        for b, (re, im, t, beta, gamma) in enumerate(_exact_symbols(inst)):
            alpha = complex(st.alpha[b])
            err = (Fraction(alpha.real) - re) ** 2 + (Fraction(alpha.imag) - im) ** 2
            assert err <= bound * t, (inst.label, b, "alpha")
            for name, got, exact in (
                ("abs_alpha_sq", st.abs_alpha_sq[b], t),
                ("beta", st.beta[b], beta),
                ("gamma", st.gamma[b], gamma),
            ):
                assert (Fraction(float(got)) - exact) ** 2 <= bound * exact**2, (
                    inst.label,
                    b,
                    name,
                )


def _essential_range_loop(values, rel=1e-9):
    vals = sorted(values.tolist(), key=lambda z: (z.real, z.imag))
    tol = rel * max(abs(z) for z in vals)
    out = []
    for v in vals:
        if not out or abs(v - out[-1]) > tol:
            out.append(v)
    return tuple(out)


def _spectrum_deviation_loop(oracle, alpha):
    """``max_b |lambda_b - alpha_b| / |T|``, one block at a time."""
    dev = max(abs(a - b) for a, b in zip(oracle.spectrum.tolist(), alpha.tolist()))
    if dev == 0.0:
        return 0.0
    return dev / oracle.norm if oracle.norm > 0 else math.inf


def test_range_and_spectrum_match_loop_references():
    insts = suite_instances(60, seed=11)
    insts.append(random_instance(np.random.default_rng(1), (40, 40), (5, 5)))
    for inst in insts:
        ce = inst.cond_exp()
        st = symbols(ce, inst.w, inst.u)
        e_uw = st.alpha[st.block_index]  # E(uw) on the atoms
        ref = _essential_range_loop(e_uw)
        assert essential_range(e_uw) == ref
        assert essential_range(st.alpha) == ref
        oracle = DefectOracle(wct_action(ce, inst.w, inst.u), 0, ce.partition)
        dist = _spectrum_deviation_loop(oracle, st.alpha)
        # numpy's complex modulus may round differently from Python's
        got = spectrum_deviation(oracle, st.alpha)
        assert got == pytest.approx(dist, rel=8 * np.finfo(float).eps)
        assert got <= 1e-8
        # each block's value is the trace of its block of the dense matrix
        t = dense(ce, inst.w, inst.u)
        traces = [np.trace(t[np.ix_(blk, blk)]) for blk in map(list, ce.partition.blocks)]
        assert np.abs(oracle.spectrum - traces).max() <= 1e-12 * max(1.0, oracle.norm)


def _faulty_blocks(n):
    """Partitions of ``n`` atoms with one fault each; the faulty atom and
    block do not depend on ``n``."""
    rest = list(range(2, n))
    return {
        "overlap": ([[0, 1], [1] + rest], "atom 1 appears in both block 0 and block 1"),
        "gap": ([[0, 1], rest[1:]], "atom 2 is not covered by any block"),
        "out-of-range": (
            [[0, 1], rest + [n]],
            f"block 1 contains out-of-range atom index {n} (space has {n} atoms)",
        ),
        "empty": ([[0, 1] + rest, []], "block 1 is empty"),
        # several faults: the first one in reading order is reported
        "first-fault": (
            [[0], [1, 1], [], rest + [n + 3], rest[:1]],
            "atom 1 appears in both block 1 and block 1",
        ),
        "empty-before-atom": ([[0, 1], [], rest + [-1]], "block 1 is empty"),
        "atom-before-empty": ([[0, 1, -1], [], rest], "block 0 contains out-of-range"),
    }


@pytest.mark.parametrize("n", [4, 100_000])
@pytest.mark.parametrize(
    "case",
    ["overlap", "gap", "out-of-range", "empty", "first-fault", "empty-before-atom",
     "atom-before-empty"],
)
def test_partition_faults_name_the_same_atom_and_block_at_scale(n, case):
    space = make_space(np.full(n, 1.0 / n))
    blocks, message = _faulty_blocks(n)[case]
    with pytest.raises(ValidationError) as info:
        make_partition(space, blocks)
    assert str(info.value).startswith(message)


def test_partition_stores_python_ints():
    space = make_space([0.25] * 4)
    part = make_partition(space, [np.array([2, 0]), (np.int32(1), 3)])
    assert part.blocks == ((2, 0), (1, 3))
    assert {type(i) for blk in part.blocks for i in blk} == {int}
    assert part.block_index.tolist() == [0, 1, 0, 1]


def _count_symbol_kernels(monkeypatch):
    """Count the calls of ``block_moments`` and of ``block_averages``."""
    calls = {"block_moments": 0, "block_averages": 0}
    for name in calls:
        original = getattr(condexp_mod, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (condexp_mod, criteria_mod, cli_mod):
            monkeypatch.setattr(module, name, counted, raising=False)
    return calls


# each of E(uw), E|u|^2 and E|w|^2 is averaged once per report, all three
# by one fused pass
@pytest.mark.parametrize("matrix_limit", [600, 0])
def test_classify_operator_averages_three_symbols_once(monkeypatch, matrix_limit):
    inst = random_instance(np.random.default_rng(5), (8, 8), (3, 3), stratum="generic")
    calls = _count_symbol_kernels(monkeypatch)
    monkeypatch.setattr(cli_mod, "MATRIX_LIMIT", matrix_limit)
    report = classify_operator(inst.space, inst.partition, inst.u, inst.w)
    assert report.matrix_route == (matrix_limit > 0)
    assert calls == {"block_moments": 1, "block_averages": 0}


def test_cmd_example_a_averages_three_symbols_once(monkeypatch):
    calls = _count_symbol_kernels(monkeypatch)
    report = cmd_example_a(5, 300)
    assert not report.classification.matrix_route
    assert calls == {"block_moments": 1, "block_averages": 0}


def test_symbols_allocate_less_than_one_atom_length_array():
    # the moments are summed chunk by chunk: at 2e5 atoms the peak of
    # what symbols allocates stays below one complex value per atom
    n = 200_000
    g = grid_space(100, n // 100)
    ce = CondExp(g.space, g.partition)
    x, y = g.xs[:, None], g.ys
    u, w = Mfunc(x + 1j * y), Mfunc(np.cos(x * y) - 0.5j)
    tracemalloc.start()
    try:
        symbols(ce, w, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * np.dtype(complex).itemsize


def test_symbols_build_no_atomwise_function(monkeypatch):
    # u, w and the space are already validated: the averages of u w, |u|^2
    # and |w|^2 are taken from plain arrays, with no copied and re-checked
    # Mfunc for any of them
    inst = random_instance(np.random.default_rng(3), (9, 9), (3, 3), stratum="generic")
    ce = inst.cond_exp()
    expected = symbols(ce, inst.w, inst.u)
    calls = []
    original = Mfunc.__post_init__

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(Mfunc, "__post_init__", counted)
    st = symbols(ce, inst.w, inst.u)
    assert calls == []
    for name in ("alpha", "beta", "gamma"):
        assert getattr(st, name).tobytes() == getattr(expected, name).tobytes()


def test_cmd_example_b_builds_one_cond_exp(monkeypatch):
    calls = []
    original = condexp_mod.CondExp.__post_init__

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(condexp_mod.CondExp, "__post_init__", counted)
    report = cmd_example_b(0.5, 60)
    assert len(calls) == 1
    # the block averages of u*w come from the report's own symbol rows
    assert [a["value"] for a in report.alphas] == [
        row["e_uw"] for row in report.classification.symbol_rows
    ]


def _verdicts(space, partition, u, w):
    report = classify_operator(space, partition, u, w, m_max=3)
    rows = [
        (r["paper_quasi"], r["corrected_quasi"], r["oracle_quasi"],
         r["paper_m_iso"], r["oracle_m_iso"])
        for r in report.criteria_rows
    ]
    return (
        rows,
        report.normality["normal"],
        len(report.mismatches),
        sorted((d["kind"], d["m"]) for d in report.divergences),
    )


GAUGE_INSTANCES = {
    "generic": lambda: random_instance(
        np.random.default_rng(3), (6, 6), (2, 2), stratum="generic"
    ),
    "support-gap": fixture_support_gap,
}


@pytest.mark.parametrize("c", [1e-7, 1e7])
@pytest.mark.parametrize("name", sorted(GAUGE_INSTANCES))
def test_gauge_leaves_verdicts_unchanged(c, name):
    # (u/c, c w) gives the same operator: the supports, decided relative to
    # the largest E|u|^2 and E|w|^2, and so every verdict stay the same
    inst = GAUGE_INSTANCES[name]()
    base = _verdicts(inst.space, inst.partition, inst.u, inst.w)
    gauged = _verdicts(
        inst.space, inst.partition, Mfunc(inst.u.values / c), Mfunc(inst.w.values * c)
    )
    assert gauged == base
    assert base[2] == 0


def test_main_random_suite_draw_failure_exits_2(capsys):
    # 300 atoms in 15 blocks: no quasi-stratum draw keeps every block
    # average of u*w above 0.2 for this seed
    code = main(
        ["random-suite", "--count", "3", "--dims", "300:300", "--blocks", "15:15",
         "--seed", "5"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "300 atoms in 15 blocks" in err
