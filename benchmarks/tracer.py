"""In-memory span tracer that wraps library functions from outside.

`Tracer.installed()` replaces each traced function in every loaded `edgelens`
module under every name bound to it. Callers look functions up by the name
they imported (`explain.py` binds `forward_on_induced`, `induce_by_edges`,
... at import), so wrapping only the defining module would miss those calls.
Each call records a span (name, start, end, parent) in flat lists; nothing is
written until `save` runs after the measurement.
"""

from __future__ import annotations

import contextlib
import sys
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, targets):
        """targets: (module name, function name) pairs, e.g.
        ("edgelens.models", "forward_dense"); the span is named
        "<module without package>.<function>"."""
        self.targets = list(targets)
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self._hooks = {}

    def on_call(self, span_name: str, hook) -> None:
        """Run hook(*args, **kwargs) before each call of the named span, to
        record argument shapes."""
        self._hooks[span_name] = hook

    def span_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.span_id(name))
        try:
            yield
        finally:
            self.close(i)

    def _wrap(self, name: str, fn):
        name_id = self.span_id(name)
        hook = self._hooks.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            i = tracer.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "edgelens"]
        patched = []
        try:
            for mod_name, fn_name in self.targets:
                original = getattr(sys.modules[mod_name], fn_name)
                traced = self._wrap(f"{mod_name.split('.')[-1]}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def arrays(self):
        """Spans as arrays: name id, start, end, parent index (-1 = root)."""
        return (
            np.array(self.name_of, dtype=np.int32),
            np.array(self.start),
            np.array(self.end),
            np.array(self.parent, dtype=np.int64),
        )

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        _, start, end, parent = self.arrays()
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def save(self, path: Path) -> None:
        name_of, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=name_of,
            start=start,
            end=end,
            parent=parent,
        )
