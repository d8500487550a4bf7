"""Outside-in tracer: spans around calls into the package's functions.

The package's modules import functions from each other by name
(``from .bell import optimize_delta``), so replacing ``cvbell.bell.optimize_delta``
alone would miss every call made through ``cvbell.source_amp.optimize_delta``
or ``cvbell.local_amp.optimize_delta``.  :meth:`Tracer.install` therefore
rebinds every module attribute of the package that holds the traced
function object.  A traced name that no longer exists is recorded in
:attr:`Tracer.absent` instead of raising, so the benchmark keeps running on
commits that deleted or renamed it.

Spans are kept in flat in-memory lists (name id, start, end, parent span,
op id) and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TracePoint:
    """One function to wrap, named ``<module>.<function>`` inside the package.

    objective: count calls of the callable passed as the first argument
        (the solver's objective) under ``evals``.
    capture: remember each call's objective, arguments and result, so the
        result can be checked after the timed region.
    key: function of the call's arguments whose distinct values are counted.
    """

    name: str
    objective: bool = False
    capture: bool = False
    key: object = None


@dataclass
class Capture:
    """One captured call: its op, objective, bound arguments and result."""

    op: int
    objective: object
    arguments: dict
    result: object


class Tracer:
    """Wraps the package functions named by ``points``.

    With ``record=False`` no span is recorded; wrappers still capture calls
    of points marked ``capture``.
    """

    def __init__(self, package: str, points, record: bool = True):
        self.package = package
        self.points = list(points)
        self.record = record
        self.absent: list[str] = []
        self.names: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.evals: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.captures: list[Capture] = []
        self._stack: list[int] = []
        self._op = -1
        self._bindings: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _resolve(self, name: str):
        module_name, _, attr = name.rpartition(".")
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None
        return getattr(module, attr, None)

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]
        for point in self.points:
            fn = self._resolve(point.name)
            if not callable(fn):
                self.absent.append(point.name)
                continue
            wrapper = self._wrap(point, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._bindings):
            setattr(module, attr, fn)
        self._bindings.clear()

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, point: TracePoint, fn):
        name_id = self._name_id(point.name)
        signature = inspect.signature(fn)
        first = next(iter(signature.parameters))

        def counted(f):
            @functools.wraps(f)
            def objective(*args, **kwargs):
                if self.record:
                    self.evals[point.name] = self.evals.get(point.name, 0) + 1
                return f(*args, **kwargs)
            return objective

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if point.objective and self.record:
                if args:
                    args = (counted(args[0]),) + args[1:]
                elif first in kwargs:
                    kwargs[first] = counted(kwargs[first])
            if point.key is not None and self.record:
                self.keys.setdefault(point.name, set()).add(point.key(*args, **kwargs))
            index = self._open(name_id) if self.record else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    self._close(index)
            if point.capture:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = dict(bound.arguments)
                self.captures.append(
                    Capture(self._op, arguments.pop(first), arguments, result)
                )
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, op_index: int, name: str):
        """A root span for one benchmark op; spans opened inside carry its id."""
        name_id = self._name_id(name)
        self._op = op_index
        index = self._open(name_id) if self.record else None
        try:
            yield
        finally:
            if index is not None:
                self._close(index)
            self._op = -1

    # -- results ------------------------------------------------------------

    def spans(self) -> dict:
        """Recorded spans as arrays (times in seconds, ``parent`` -1 at a root)."""
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start": np.asarray(self.span_start, dtype=float),
            "end": np.asarray(self.span_end, dtype=float),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "op": np.asarray(self.span_op, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(list(self.names)), **self.spans())

    def summary(self) -> dict:
        """Per traced name: ``calls``, ``self_s`` and ``incl_s``.

        ``incl_s`` sums span durations; none of the traced functions calls
        itself, so no interval is counted twice.
        """
        spans = self.spans()
        duration = spans["end"] - spans["start"]
        own = self_times(spans["start"], spans["end"], spans["parent"])
        out = {}
        for name, name_id in self.names.items():
            mask = spans["name"] == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(own[mask].sum()),
                "incl_s": float(duration[mask].sum()),
            }
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one span come from synchronous calls on one thread, so they
    never overlap each other; each child is clipped to its parent's interval.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    child = np.nonzero(parent >= 0)[0]
    p = parent[child]
    covered = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
    np.add.at(own, p, -np.clip(covered, 0.0, None))
    return own
