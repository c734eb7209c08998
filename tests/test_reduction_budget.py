"""The fixed cost of a small report, held as a count of numpy reductions.

On a few atoms a report's time goes to numpy's fixed cost per call, and a
ufunc reduction (``reduce``, ``reduceat`` or ``accumulate``, which
``.max()``, ``.min()``, ``.all()`` and ``.any()`` call) is among the
dearest of them, at about 1 us on an array of ten entries.  A wall-clock
bound would not hold on a noisy host, but the count of reductions that one
``cmd_classify(ProblemSpec.from_dict(spec))`` makes is the same on every
run.  Each ceiling below is the count when it was set, so a change that
adds a reduction to the path of a small report fails here; one that takes
a reduction out may lower the ceiling.

Only the bound methods ``reduce``, ``reduceat`` and ``accumulate`` of a
``np.ufunc`` are counted, as the profiler sees them called from C.  So
the count is tied to how the installed numpy dispatches: ``ndarray.max``
reaches ``np.maximum.reduce`` through numpy's ``_methods``, and a numpy
that takes another path there changes every count.  Other fixed-cost
calls are not counted, ``np.count_nonzero`` among them, so the budget
holds the number of reductions, not the time of a report.
"""

import sys

import numpy as np
import pytest

from wctops.cli import ProblemSpec, cmd_classify

REDUCTIONS = {"reduce", "reduceat", "accumulate"}

# spec, and the most reductions its report may make
BUDGETS = {
    # two blocks of two atoms, with complex u and w
    "two-blocks": (
        {
            "weights": [0.5, 0.25, 0.125, 0.125],
            "blocks": [[0, 2], [1, 3]],
            "u": [[1.0, 0.5], [-0.5, 1.0], [2.0, 0.0], [0.25, -1.0]],
            "w": [[0.5, 0.0], [1.0, 1.0], [-1.5, 0.5], [2.0, -0.25]],
        },
        24,
    ),
    # the averaging projection of the random suite's fixture: a normal
    # report, whose essential range has one value
    "projection": (
        {"weights": [0.25] * 4, "blocks": [[0, 1], [2, 3]], "u": [1.0] * 4, "w": [1.0] * 4},
        25,
    ),
    # every block one atom: a normal report with no block sum
    "singletons": (
        {
            "weights": [0.5, 0.25, 0.25],
            "blocks": [[0], [1], [2]],
            "u": [[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]],
            "w": [1.0, 1.0, 1.0],
        },
        20,
    ),
}


def _reductions(spec: dict) -> int:
    """The ufunc reductions that one report of ``spec`` calls, counted as
    the profiler's ``c_call`` events of a ufunc's reduction methods."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if (
            event == "c_call"
            and isinstance(getattr(arg, "__self__", None), np.ufunc)
            and arg.__name__ in REDUCTIONS
        ):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        cmd_classify(ProblemSpec.from_dict(spec))
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_a_small_report_stays_within_its_reduction_budget(name):
    spec, ceiling = BUDGETS[name]
    # a first report fills the caches that every later one reads
    cmd_classify(ProblemSpec.from_dict(spec))
    count = _reductions(spec)
    assert count <= ceiling, f"{name}: {count} reductions, past the budget of {ceiling}"

