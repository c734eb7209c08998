import dataclasses

import numpy as np
import pytest

import dense_reference
from dense_reference import wct_matrix
from wctops import (
    Action,
    CondExp,
    DefectOracle,
    Mfunc,
    audit_rows,
    block_averages,
    make_partition,
    make_space,
    symbols,
    wct_action,
)
import wctops.cli as cli_mod
from wctops.cli import random_instance


@pytest.fixture
def uniform4():
    """Uniform 4-atom probability space with the {0,1}/{2,3} partition."""
    space = make_space([0.25, 0.25, 0.25, 0.25])
    partition = make_partition(space, [[0, 1], [2, 3]])
    return space, partition, CondExp(space, partition)


@pytest.fixture
def flipped_corrected_verdict(monkeypatch):
    """Every corrected quasi verdict of a report inverted, so each order of
    a two-route report is a mismatch."""
    original = cli_mod.audit_rows

    def flipped(*args, **kwargs):
        return tuple(
            dataclasses.replace(row, corrected_quasi=not row.corrected_quasi)
            for row in original(*args, **kwargs)
        )

    monkeypatch.setattr(cli_mod, "audit_rows", flipped)


def random_instances(seed, count, dim_range=(2, 10), block_range=(1, 4), stratum=None):
    rng = np.random.default_rng(seed)
    return [
        random_instance(rng, dim_range, block_range, stratum=stratum, label=f"i{i}")
        for i in range(count)
    ]


def mf(values):
    return Mfunc(np.asarray(values))


def dense(ce, w, u):
    """The dense reference matrix of ``f -> w E(u f)``."""
    return wct_matrix(ce.space.weights, ce.partition.block_index, u.values, w.values)


def audit(ce, w, u, m_max):
    """The two-route audit rows of ``f -> w E(u f)`` for m = 1..m_max, as a
    report builds them; ``findings`` reads their mismatches and divergences."""
    return audit_rows(symbols(ce, w, u), m_max, wct_oracle(ce, w, u))


def matrix_action(a):
    """The action of the square matrix ``a`` and of its adjoint."""
    return Action(lambda x: a @ x, lambda x: a.conj().T @ x)


def wct_oracle(ce, w, u):
    """The defect oracle of ``f -> w E(u f)``, read from its action."""
    return DefectOracle(wct_action(ce, w, u), ce.partition)


def core_matrices(oracle):
    """The oracle's cores as matrices, rebuilt from its per-block values
    ``lam_b`` (``spectrum``) and ``|kappa_b|``: ``[[lam, |kappa|], [0, 0]]``
    for each block, or ``[[lam]]`` when every block is a singleton; shape
    ``(k, d, d)``.  The core ``[[lam, kappa], [0, 0]]`` read from the
    operator is this one conjugated by the unitary ``diag(1, kappa /
    |kappa|)``, so both have the same defect and quasi-defect eigenvalues."""
    lam = oracle.spectrum
    if oracle.singletons:
        return lam[:, None, None].copy()
    cores = np.zeros((len(lam), 2, 2), dtype=complex)
    cores[:, 0, 0], cores[:, 0, 1] = lam, oracle._kappa
    return cores


def core_defects(oracle, m):
    """``B_m`` on each of the oracle's cores, built by the dense reference:
    shape ``(k, d, d)``."""
    return np.array([dense_reference.defect(core, m) for core in core_matrices(oracle)])


def defect_evals(oracle, m, quasi=False):
    """The eigenvalues of ``B_m``, or of ``T* B_m T``, on the oracle's cores,
    from the dense reference."""
    b, cores = core_defects(oracle, m), core_matrices(oracle)
    if quasi:
        b = cores.conj().swapaxes(-1, -2) @ b @ cores
    return np.sort(np.linalg.eigvalsh(b).ravel())


def cond_exp(ce, f):
    """``E(f)`` on the atoms: the block averages, replicated atomwise."""
    return block_averages(ce, f)[ce.partition.block_index]
