"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` wraps every public function, every public method and
the constructor of every public class defined in the six layer modules.
The modules import each other with ``from .x import y``, so one function
is bound under its name in several module namespaces (``op_norm`` lives in
``linop``, ``classify``, ``criteria`` and ``cli``); the wrapper replaces
every binding that holds the original object.  Private helpers are not
wrapped, so their time shows in their caller's self time.

Each call records a span ``(name, start, end, parent, op)``; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time

LAYERS = ("measure", "condexp", "linop", "classify", "criteria", "cli")

# Calls whose cost is an eigensolve of their first argument: the computed
# work is the cube of its dimension.
EIG_WORK = {"linop.hermitian_eig", "linop.spectrum"}
EIG_WORK_METRIC = "linop.eig_work_n3"


def _dim(operand) -> int:
    return len(getattr(operand, "entries", operand))


class Tracer:
    """Spans and per-name aggregates for one traced pass at a time."""

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self.constructors: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []
        self.op = -1
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.eig_work = 0
        self._stack: list[list] = []

    def _index(self, name: str, constructor: bool = False) -> int:
        self.names.append(name)
        if constructor:
            self.constructors.add(len(self.names) - 1)
        return len(self.names) - 1

    def _wrap(self, name: str, fn, constructor: bool = False):
        idx = self._index(name, constructor)
        clock = time.perf_counter
        counts_work = name in EIG_WORK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_work:
                self.eig_work += _dim(args[0]) ** 3
            stack, spans = self._stack, self.spans
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (idx, start, end, parent, self.op)
                self.calls[idx] += 1
                self.self_s[idx] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, qual: str, cls) -> None:
        init = cls.__dict__.get("__init__")
        if inspect.isfunction(init):
            self._set(cls, "__init__", self._wrap(qual, init, constructor=True))
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qual}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(name, member))

    def install(self) -> None:
        """Wrap every public function and class of the layer modules."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        pkg = self.package.__name__
        modules = {layer: importlib.import_module(f"{pkg}.{layer}") for layer in LAYERS}
        self.names.clear()
        self.constructors.clear()
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for namespace in (self.package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(namespace, attr, entry[1])
        self.reset()

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict[str, int]:
        """Call counts (``.calls``, or ``.created`` for constructors) and work."""
        out = {
            f"{name}.{'created' if i in self.constructors else 'calls'}": self.calls[i]
            for i, name in enumerate(self.names)
        }
        out[EIG_WORK_METRIC] = self.eig_work
        return out

    def self_times(self) -> dict[str, float]:
        return {f"{name}.self_s": self.self_s[i] for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        """Gzipped CSV, one row per span: index, op, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index,op,name,start,end,parent\n")
            for i, (idx, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{i},{op},{self.names[idx]},{start:.9f},{end:.9f},{parent}\n")
