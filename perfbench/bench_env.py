"""Process set-up shared by the benchmark driver and its set-up probes.

``prepare`` must run before anything imports numpy: it caps the BLAS
thread pools at the CPUs this process may use and puts the checkout's
``src`` directory first on the import path.  ``import_cli`` then imports
the package from that directory and nowhere else.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Cap BLAS threads at ``nproc`` and import the package from ``src``."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc()))
    sys.path.insert(0, str(SRC))


def import_cli():
    """Import ``wctops.cli`` from the checkout, or exit with code 2."""
    try:
        import wctops
        import wctops.cli as cli
    except ImportError as exc:
        print(f"error: cannot import wctops from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    origin = Path(wctops.__file__).resolve()
    if SRC not in origin.parents:
        print(f"error: wctops was imported from {origin}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cli


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, when there is one."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas*.so*"):
        try:
            fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        except OSError:
            continue
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def describe() -> dict:
    """The machine and library facts a result depends on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
