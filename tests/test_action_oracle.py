"""The defect oracle read from the action of ``T f = w E(u f)``.

Reports build the oracle from ``wct_action``: three matvecs give each
block's rank-one core, and no ``n x n`` matrix is made.  These tests hold
that oracle to the dense reference with the assertions of
``test_block_oracle``, check that the report path builds no ``n x n``
array, and check the rank-one model's probe check.
"""

import json
import tracemalloc

import numpy as np
import pytest

import test_block_oracle
from conftest import dense
from wctops import (
    Action,
    CondExp,
    DefectOracle,
    Mfunc,
    NumericError,
    make_partition,
    make_space,
    wct_action,
)
from wctops.cli import (
    ProblemSpec,
    classify_operator,
    cmd_random_suite,
    cmd_sweep_m,
    main,
    suite_instances,
)


def _assert_action_oracle_matches_whole(ce, w, u, m_max):
    """``test_block_oracle``'s comparison with the dense reference, with the
    oracle built from ``wct_action`` instead of the dense matrix."""
    test_block_oracle._assert_oracle_matches_dense(
        wct_action(ce, w, u), dense(ce, w, u), ce.partition, m_max
    )


def test_action_oracle_matches_whole_matrix_on_random_suite():
    for inst in suite_instances(200, seed=42):
        _assert_action_oracle_matches_whole(inst.cond_exp(), inst.w, inst.u, 4)


def _parallel_operator(c=1.0, seed=25):
    """Blocks of 1 to 9 atoms laid over a shuffled atom order, with
    ``u = c conj(w)``, so that ``c_b`` is parallel to ``a_b`` and every
    block is normal; the draws are ``test_block_oracle``'s for its
    ``parallel`` case."""
    rng = np.random.default_rng(seed)
    sizes = [3, 4, 6, 9, 2, 1]
    n = sum(sizes)
    space = make_space(rng.uniform(0.2, 2.0, n))
    perm = rng.permutation(n)
    partition = make_partition(
        space, [p.tolist() for p in np.split(perm, np.cumsum(sizes)[:-1])]
    )
    w = rng.uniform(0.0, 2.0, n) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    return CondExp(space, partition), Mfunc(w), Mfunc(c * w.conj())


def test_action_oracle_matches_whole_matrix_on_parallel_blocks():
    ce, w, u = _parallel_operator()
    _assert_action_oracle_matches_whole(ce, w, u, 3)


@pytest.mark.parametrize("c,seed", [(1.0, 25), (1.7, 17), (1e-3, 3)])
def test_action_oracle_keeps_parallel_blocks_normal(c, seed):
    # c_b parallel to a_b leaves the core's off-diagonal entry at roundoff,
    # read from the residual vector: every block's angle has a sine at
    # roundoff, whatever the scale c
    ce, w, u = _parallel_operator(c, seed)
    normality = DefectOracle(wct_action(ce, w, u), 1, ce.partition).normality()
    assert normality["normal"] and normality["residual"] <= 1e-14


# atoms of the largest operator that ``test_reports_build_no_dense_matrix``
# classifies: the most the matrix route takes
DENSE_ATOMS = 600


def test_reports_build_no_dense_matrix():
    ce, w, u = _parallel_operator()
    report = classify_operator(ce.space, ce.partition, u, w)
    assert report.matrix_route and report.normality["normal"]
    assert len(report.spectrum) == 6 and report.spectrum_zeros == 25 - 6
    spec = ProblemSpec(space=ce.space, partition=ce.partition, u=u, w=w)
    assert [row["m"] for row in cmd_sweep_m(spec, 6).rows] == list(range(1, 7))
    suite = cmd_random_suite(count=20)
    assert suite.mismatch_count == 0 and len(suite.instance_rows) == 22
    # the largest operator the matrix route takes, in blocks of six atoms:
    # its report allocates less than half of one complex n x n array
    rng = np.random.default_rng(6)
    space = make_space(rng.uniform(0.2, 2.0, DENSE_ATOMS))
    blocks = np.arange(DENSE_ATOMS).reshape(-1, 6).tolist()
    u, w = (Mfunc(rng.normal(size=(DENSE_ATOMS, 2)) @ [1, 1j]) for _ in range(2))
    tracemalloc.start()
    try:
        report = classify_operator(space, make_partition(space, blocks), u, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.matrix_route and len(report.spectrum) == DENSE_ATOMS // 6
    assert report.spectrum_zeros == DENSE_ATOMS - DENSE_ATOMS // 6
    assert peak < 16 * DENSE_ATOMS**2 / 2, f"allocations peaked at {peak} bytes"


def test_structured_classify_report_is_byte_stable(tmp_path, capsys):
    ce, w, u = _parallel_operator()
    path = tmp_path / "spec.json"
    spec = ProblemSpec(space=ce.space, partition=ce.partition, u=u, w=w)
    path.write_text(json.dumps(spec.to_dict()))
    outputs = []
    for _ in range(2):
        assert main(["classify", str(path), "--format", "structured"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["spectrum"]


def _with_extra_term(T, blk, x):
    """``T`` plus the rank-one term ``x[0] x[1]*`` on the atoms ``blk``."""
    extra = np.outer(x[0], x[1].conj())

    def apply(v):
        out = T.apply(v)
        out[blk] += extra @ v[blk]
        return out

    def apply_adj(v):
        out = T.apply_adj(v)
        out[blk] += extra.conj().T @ v[blk]
        return out

    return Action(apply, apply_adj)


@pytest.mark.parametrize("size,trips", [(0.5, True), (1e-8, True), (1e-13, False)])
def test_rank_two_action_block_raises_numeric_error(size, trips):
    # the probe check trips at 1e-10 of the operator's scale
    rng = np.random.default_rng(21)
    space = make_space(rng.uniform(0.2, 2.0, 12))
    partition = make_partition(space, [[0, 1, 2], [3, 4, 5, 6], list(range(7, 12))])
    ce = CondExp(space, partition)
    w, u = (Mfunc(rng.normal(size=12) + 1j * rng.normal(size=12)) for _ in range(2))
    T = wct_action(ce, w, u)
    DefectOracle(T, 2, partition)  # the operator itself passes
    x = np.sqrt(size) * (rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)))
    perturbed = _with_extra_term(T, list(range(7, 12)), x)
    if trips:
        with pytest.raises(NumericError, match="not rank one"):
            DefectOracle(perturbed, 2, partition)
    else:
        DefectOracle(perturbed, 2, partition)


def test_action_returning_nan_raises_numeric_error():
    # a NaN probe residual compares false with any bound: the probe check
    # must still fail on it
    space = make_space([1.0, 2.0, 3.0])
    partition = make_partition(space, [[0, 1], [2]])

    def nan(x):
        return np.full(x.shape, np.nan, dtype=complex)

    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="probe residual nan"):
            DefectOracle(Action(nan, nan), 2, partition)
