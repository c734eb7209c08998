"""The host's current speed, measured by a fixed computation.

The CPUs of this machine are shared with other tenants.  The same code
runs at one speed for some seconds, then up to 1.9 times slower for
stretches of a few seconds to several minutes, and CPU time grows with
wall time, so neither shows the program alone.  Per-operation minimums
do not help when a whole run falls in a slow stretch.

The kernel here does not use the program.  It spends about a third of
its time on each of three kinds of work that the workloads do: small
dense Hermitian eigensolves in numpy, plain Python list and dict work,
and gathers from a 16 MB array, which miss the core's caches.  The
slowdown hits each kind differently, and the mix follows all three
workloads better than any one kind alone.  The benchmark runs the kernel
right after every operation and divides the operation's time by the mean
kernel time before and after it.  The quotient is the operation's time
in ``ref`` units, one ``ref`` being one kernel call on the same host at
the same moment.  The host's state moves it far less than the seconds
themselves.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20250923)
_A = _RNG.normal(size=(8, 8)) + 1j * _RNG.normal(size=(8, 8))
_HERMITIAN = _A + _A.conj().T
_BIG = _RNG.normal(size=2_000_000)
_INDEX = _RNG.integers(0, _BIG.size, 20_000)


def kernel() -> float:
    """One kernel call: about 0.5 ms on an idle 2.1 GHz Xeon core."""
    total = 0.0
    for _ in range(4):
        total += float(np.linalg.eigvalsh(_HERMITIAN)[0])
        table = {i: 3 * i for i in range(300)}
        total += sum(v for v in table.values() if v & 1)
    values = [0.5 * i for i in range(2000)]
    total += sum(sorted(values, key=abs)[:10])
    total += float(_BIG[_INDEX].sum()) + float(_BIG[_INDEX[::-1]].sum())
    return total


def measure(min_s: float) -> tuple[float, float]:
    """Wall and CPU seconds per kernel call, over at least one call and
    at least ``min_s`` seconds."""
    calls = 0
    cpu, start = time.process_time(), time.perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return elapsed / calls, (time.process_time() - cpu) / calls
