"""Span tracing of mixbgk's layers, installed from outside the program.

``Tracer.install`` replaces every public mixbgk function in every mixbgk
module namespace (and in the package namespace) with a wrapper, so each
call is seen where its caller looks the name up: ``integrate.assemble``,
``output.symmetric_eigenvalues``, ``cli.simulate`` and so on.  A span
records the callee (named by its defining module), the namespace it was
called through, its parent span, and its start and end.  Spans stay in
memory; ``write`` puts them in a file when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = (
    "mixbgk",
    "mixbgk.cli",
    "mixbgk.collisions",
    "mixbgk.dynamics",
    "mixbgk.equilibrium",
    "mixbgk.integrate",
    "mixbgk.output",
    "mixbgk.scenarios",
    "mixbgk.species",
)


class Tracer:
    def __init__(self, observers=None):
        # observers: span name -> callable(args, result), run after the call
        self.observers = observers or {}
        self.spans: list = []  # (name, via, parent index, start, end)
        self._stack: list[int] = []
        self._originals: list = []

    def _wrap(self, func, name: str, via: str):
        spans, stack = self.spans, self._stack
        observer = self.observers.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index] = (name, via, parent, start, time.perf_counter())
                stack.pop()
            if observer is not None:
                observer(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            via = module_name.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("mixbgk")
                ):
                    continue
                name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                self._originals.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, name, via))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span around one operation."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, "benchmark", parent, start, time.perf_counter())
            self._stack.pop()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()  # the wrappers hold this list object
        return spans


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    Self time is a span's duration minus the durations of its child spans.
    """
    child_time = [0.0] * len(spans)
    for name, via, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, via, parent, start, end) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[index]
    return dict(table)


def write(path: str, spans, summary) -> None:
    """Write one traced pass's spans (ids are list positions) and aggregates."""
    origin = spans[0][3] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "fields": ["id", "name", "via", "parent", "start_us", "end_us"],
                "spans": [
                    [i, name, via, parent, round((start - origin) * 1e6, 3),
                     round((end - origin) * 1e6, 3)]
                    for i, (name, via, parent, start, end) in enumerate(spans)
                ],
                "by_name": summary,
            },
            handle,
        )
