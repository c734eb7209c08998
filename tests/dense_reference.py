"""A dense reference for the defect oracle, in plain numpy.

It builds the whole ``n x n`` matrix of ``T f = w E(u f)`` in the orthonormal
atom basis and reads every number of the oracle from it with ``numpy.linalg``
alone, so it shares no kernel with the package it audits.
"""

from math import comb

import numpy as np


def wct_matrix(weights, block_index, u, w):
    """``w[:, None] * E * u[None, :]``, where ``E[x, y]`` is
    ``sqrt(mu(x) mu(y)) / mu(B)`` when atoms x and y share block B, else 0."""
    weights, idx = np.asarray(weights, dtype=float), np.asarray(block_index)
    root = np.sqrt(weights)
    e = np.outer(root, root) / np.bincount(idx, weights=weights)[idx][:, None]
    e = np.where(idx[:, None] == idx[None, :], e, 0.0)
    return np.asarray(w)[:, None] * e * np.asarray(u)[None, :]


def norm(h):
    """The spectral norm of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(h)).max())


def defect(t, m):
    """``B_m = sum_k (-1)^(m-k) C(m,k) T*^k T^k``."""
    powers = [np.linalg.matrix_power(t, k) for k in range(m + 1)]
    return sum((-1) ** (m - k) * comb(m, k) * (p.conj().T @ p) for k, p in enumerate(powers))


def power(h, p):
    """``h**p`` of a positive semidefinite ``h``; eigenvalues below
    ``1e-10 max(1, |h|)`` count as zero."""
    evals, vecs = np.linalg.eigh(h)
    evals = np.where(evals < 1e-10 * max(1.0, np.abs(evals).max()), 0.0, evals)
    return (vecs * evals**p) @ vecs.conj().T


def sorted_spectrum(values, zeros):
    """The multiset ``values`` with ``zeros`` more exact zeros, sorted by
    (real, imaginary) part as ``oracle`` sorts its spectrum."""
    ev = np.concatenate([np.asarray(values, dtype=complex), np.zeros(zeros, complex)])
    return ev[np.lexsort((ev.imag, ev.real))]


def oracle(t, m_max, probes_p=()):
    """The oracle's numbers for the matrix ``t``: its norm, the norms of
    ``B_m`` and ``T* B_m T`` for m = 1..m_max, the norm and negative part of
    ``T* T - T T*``, the negative part of ``(T* T)^p - (T T*)^p`` for each p,
    and the spectrum sorted by (real, imaginary) part."""
    gram, cogram = t.conj().T @ t, t @ t.conj().T
    defects = [defect(t, m) for m in range(1, m_max + 1)]
    comm = np.linalg.eigvalsh(gram - cogram)
    lows = [np.linalg.eigvalsh(power(gram, p) - power(cogram, p))[0] for p in probes_p]
    ev = np.linalg.eigvals(t)
    return {
        "norm": np.sqrt(norm(gram)),
        "defect_norms": [norm(b) for b in defects],
        "quasi_defect_norms": [norm(t.conj().T @ b @ t) for b in defects],
        "normal_residual": float(np.abs(comm).max()),
        "hyponormal_residual": max(0.0, -float(comm[0])),
        "p_residuals": [max(0.0, -float(low)) for low in lows],
        "spectrum": ev[np.lexsort((ev.imag, ev.real))],
    }
