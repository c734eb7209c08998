"""The defect oracle's per-block values with every rare case taken by ``np.where``.

``wctops.linop._rank_one_cores`` takes three of its four rare-case formulas
(a zero block, a subnormal ``|y|^2``, a singleton's corner) only where one
count over the blocks finds its case; the fourth, a ``|y|^2 |r|^2`` past the
double range, it tests on every block.  ``values`` takes all four on every
input, on the same probes, keeps each
block as the row ``(lam, kappa)`` of one ``(k, 2)`` array, and then takes
the moduli and lengths of the rows as the oracle did before it kept per-block
values.  ``DefectOracle`` must give the same bytes.
"""

import numpy as np

from wctops.linop import _PROBE_ROWS, _draw_probes, _probe_block


@np.errstate(over="ignore", invalid="ignore")
def values(T, partition):
    """The oracle's ``spectrum``, ``t``, ``g``, ``sine`` and ``norm`` for the
    action ``T`` on ``partition``, beside the data that picks each rare case:
    ``s`` (0 on a zero block), ``yy`` (``|y|^2``), ``rr`` (``|r|^2``) and
    ``both`` (``|y|^2 |r|^2``).  No probe check."""
    n, idx = partition.atom_count, partition.block_index
    probes = _probe_block()[:n] if n <= _PROBE_ROWS else _draw_probes(n)
    f, h = probes[:, 0], probes[:, 1]
    y = T.apply(probes[:, :2])[:, 0]
    z = T.apply_adj(probes[:, 2:])[:, 0]
    zc = z.conj()
    products = np.empty((n, 4), dtype=complex)
    for j, (left, right) in enumerate(((y.conj(), y), (zc, y), (zc, f), (zc, h))):
        np.multiply(left, right, out=products[:, j])
    yy, zy, s, _ = partition.block_sums(products).T
    yy = yy.real
    inv_s = 1.0 / np.where(s != 0, s, np.inf)
    lift = np.where(yy < 2.0**-1022, 2.0**54, 1.0)
    proj = (zy * lift).conj() / np.where(yy > 0, yy * lift, 1.0)
    rr = partition.block_sums(np.abs(z - y * proj[idx]) ** 2)
    both = yy * rr
    in_range = (both >= np.finfo(float).tiny) & (both < np.inf)
    corner = np.where(in_range, np.sqrt(both), np.sqrt(yy) * np.sqrt(rr)) * inv_s
    cores = np.stack((zy * inv_s, np.where(partition.sizes == 1, 0.0, corner)), axis=1)

    moduli = np.abs(cores)
    lengths = np.hypot(moduli[:, 0], moduli[:, 1])
    return {
        "spectrum": cores[:, 0],
        "t": moduli[:, 0] ** 2,
        "g": lengths**2,
        "sine": moduli[:, 1] / np.where(lengths > 0, lengths, 1.0),
        "norm": float(lengths.max()),
        "s": s,
        "yy": yy,
        "rr": rr,
        "both": both,
    }
