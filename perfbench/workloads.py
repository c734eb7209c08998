"""Seeded inputs, the operation that runs each one, and its output check.

Every workload is a list of ``Op``.  A spec op is a problem spec in the
JSON form a user writes (complex numbers as ``[re, im]`` pairs), run as
``cmd_classify(ProblemSpec.from_dict(spec))``; an example-a op runs
``cmd_example_a(nx, ny)``.  The generator here is the benchmark's own and
uses numpy alone, so the program receives nothing but the generated specs.

``expect`` names the mathematical fact the op's report must show:

- ``generic``: random ``u`` and ``w``; the corrected quasi verdict at
  m = 1 does not hold.  Higher orders are not checked: their default
  tolerance ``1e-9 * norm(T)**(2m)`` accepts a residual
  ``|t - 1|**m * E|u|^2 E|w|^2`` that is small only because ``|t - 1|``
  is raised to the m-th power, so an instance with ``t`` within about
  1e-3 of 1 is reported quasi-3- and quasi-4-isometric by both routes.
- ``quasi``: ``u`` scaled per block so ``|E(uw)| = 1``; every corrected
  quasi verdict holds.
- ``normal``: all-singleton partition with ``|uw| = 1``, so ``T`` is
  unitary; the report says normal, and the normal-case properties agree.
- ``projection`` / ``support-gap``: the two adversarial fixtures of the
  random suite; each shows its literal-reading divergence (m-isometry for
  the projection, quasi for the support gap).
- ``example-a``: the grid moments match their closed forms and no quasi
  verdict holds, since ``|E(uw)|`` stays away from 1.

Every spec op must also report no corrected-vs-oracle mismatch, a
spectrum that matches the attained values of ``E(uw)``, and one criteria
row per order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest relative error of example-a's measured moments against their
# closed forms; the midpoint rule gives about 1.6e-5 at 1000 rows.
EXAMPLE_A_REL_ERR = 1e-3


@dataclass(frozen=True)
class Op:
    label: str
    expect: str
    args: object


def _pairs(z: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in z]


def _spec(weights, blocks, u, w, m_max: int) -> dict:
    return {
        "weights": [float(v) for v in weights],
        "blocks": [[int(i) for i in blk] for blk in blocks],
        "u": _pairs(u),
        "w": _pairs(w),
        "m_max": m_max,
    }


def _complex(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return rng.uniform(lo, hi, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


def _blocks(rng: np.random.Generator, n: int, n_blocks: int) -> list[np.ndarray]:
    perm = rng.permutation(n)
    if n_blocks == 1:
        return [perm]
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False))
    return np.split(perm, cuts)


def generic(rng: np.random.Generator, n: int, n_blocks: int, m_max: int) -> dict:
    weights = rng.uniform(0.2, 2.0, n)
    blocks = _blocks(rng, n, n_blocks)
    return _spec(weights, blocks, _complex(rng, n, 0.0, 2.0), _complex(rng, n, 0.0, 2.0), m_max)


def quasi(rng: np.random.Generator, n: int, n_blocks: int, m_max: int) -> dict:
    """|E(uw)| = 1 on every block, built directly rather than by rejection.

    The phase of ``u w`` stays near one angle per block, so every block
    average is bounded away from zero before ``u`` is divided by its modulus.
    """
    weights = rng.uniform(0.2, 2.0, n)
    blocks = _blocks(rng, n, n_blocks)
    owner = np.empty(n, dtype=np.intp)
    for b, blk in enumerate(blocks):
        owner[blk] = b
    w = _complex(rng, n, 0.5, 1.5)
    angle = rng.uniform(0.0, 2.0 * np.pi, n_blocks)[owner] + rng.normal(0.0, 0.3, n)
    u = rng.uniform(0.5, 1.5, n) * np.exp(1j * angle) / np.exp(1j * np.angle(w))
    avg = np.array([(u[blk] * w[blk] * weights[blk]).sum() / weights[blk].sum() for blk in blocks])
    u = u / np.abs(avg)[owner]
    return _spec(weights, blocks, u, w, m_max)


def normal(rng: np.random.Generator, n: int, m_max: int) -> dict:
    """All-singleton partition with |uw| = 1: a unitary diagonal operator."""
    weights = rng.uniform(0.2, 2.0, n)
    u = _complex(rng, n, 0.5, 2.0)
    w = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)) / u
    return _spec(weights, [[i] for i in range(n)], u, w, m_max)


def projection() -> dict:
    """The averaging projection: u = w = 1 on two blocks of two atoms."""
    ones = np.ones(4, dtype=complex)
    return _spec([0.25] * 4, [[0, 1], [2, 3]], ones, ones, 4)


def support_gap() -> dict:
    """Symbols vanish on one block, so |E(uw)| = 1 only on the joint support."""
    u = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
    w = np.array([2.0, 0.0, 0.0, 0.0], dtype=complex)
    return _spec([0.25] * 4, [[0, 1], [2, 3]], u, w, 4)


def _dense_oracle(rng: np.random.Generator) -> list[Op]:
    return [
        Op("generic-150", "generic", generic(rng, 150, 8, 4)),
        Op("quasi-300", "quasi", quasi(rng, 300, 15, 5)),
        Op("normal-300", "normal", normal(rng, 300, 6)),
        Op("generic-600", "generic", generic(rng, 600, 15, 4)),
    ]


def _small_specs(rng: np.random.Generator, count: int = 250) -> list[Op]:
    """The random suite's mix after its two fixtures: 2 to 10 atoms, 1 to 4
    blocks, a quarter quasi, a quarter unimodular (here ``normal``), the
    rest generic.  Strata, atom counts and block counts come in exact
    proportions rather than by chance, so the seed changes the values but
    not the amount of work; 250 specs give each one about 20 samples in a
    30-second run."""
    ops = [Op("projection", "projection", projection()), Op("support-gap", "support-gap", support_gap())]
    for i in range(count):
        dim = 2 + (i // 4) % 9
        n_blocks = 1 + (i // 36) % min(4, dim)
        if i % 4 == 0:
            ops.append(Op(f"quasi-{i}", "quasi", quasi(rng, dim, n_blocks, 4)))
        elif i % 4 == 1:
            ops.append(Op(f"normal-{i}", "normal", normal(rng, dim, 4)))
        else:
            ops.append(Op(f"generic-{i}", "generic", generic(rng, dim, n_blocks, 4)))
    return ops


def _symbol_scale(rng: np.random.Generator) -> list[Op]:
    # example-a's inputs are fixed by the grid size; the seed does not enter.
    return [
        Op("example-a-20x1000", "example-a", (20, 1000, 4)),
        Op("example-a-100x10000", "example-a", (100, 10000, 4)),
    ]


GENERATORS = {"dense-oracle": _dense_oracle, "small-specs": _small_specs, "symbol-scale": _symbol_scale}
WORKLOADS = tuple(GENERATORS)


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operations, the same for the same seed."""
    return GENERATORS[workload](np.random.default_rng(seed))


def execute(cli, op: Op):
    """Run one operation through the package's public entry points."""
    if op.expect == "example-a":
        return cli.cmd_example_a(*op.args)
    return cli.cmd_classify(cli.ProblemSpec.from_dict(op.args))


def _spec_problems(expect: str, data: dict) -> list[str]:
    problems = []
    match = data["spectrum_match"]
    if not (match and match["ok"]):
        problems.append(f"spectrum does not match the attained E(uw) values: {match}")
    corrected = [row["corrected_quasi"] for row in data["criteria"]]
    kinds = {d["kind"] for d in data["divergences"]}
    if expect == "generic" and corrected[0]:
        problems.append("the corrected quasi-1 verdict holds on a generic instance")
    elif expect == "quasi" and not all(corrected):
        problems.append(f"corrected quasi verdicts {corrected} are not all true")
    elif expect == "normal":
        normality, case = data["normality"], data["normal_case"]
        if not (normality and normality["normal"]):
            problems.append("a unitary diagonal operator is not reported normal")
        if not (case and case["all_equal"]):
            problems.append("the normal-case properties do not all agree")
    elif expect == "projection" and "m_isometry" not in kinds:
        problems.append("the projection fixture shows no m-isometry divergence")
    elif expect == "support-gap" and "quasi" not in kinds:
        problems.append("the support-gap fixture shows no quasi divergence")
    return problems


def _example_a_problems(data: dict) -> list[str]:
    problems = []
    for key in ("max_rel_err_e_u2", "max_rel_err_e_w2", "max_rel_err_t"):
        if not data[key] <= EXAMPLE_A_REL_ERR:
            problems.append(f"{key} = {data[key]:.3e} exceeds {EXAMPLE_A_REL_ERR:g}")
    rows = data["classification"]["criteria"]
    if any(row["paper_quasi"] or row["corrected_quasi"] for row in rows):
        problems.append("a quasi verdict holds although |E(uw)| stays away from 1")
    return problems


def check(op: Op, report) -> list[str]:
    """Problems with the report of ``op``; empty when every fact holds."""
    data = report.to_dict()
    if op.expect == "example-a":
        problems = _example_a_problems(data)
        data, m_max = data["classification"], op.args[2]
    else:
        problems = _spec_problems(op.expect, data)
        m_max = op.args["m_max"]
    if data["mismatches"]:
        problems.append(f"{len(data['mismatches'])} corrected-vs-oracle mismatch(es)")
    orders = [row["m"] for row in data["criteria"]]
    if orders != list(range(1, m_max + 1)):
        problems.append(f"criteria rows cover orders {orders}, not 1..{m_max}")
    return problems
