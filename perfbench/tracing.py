"""Span tracing of the tailhash layers from outside the package.

Every public function of a traced module is replaced, for the duration of
``Tracer.installed()``, by a wrapper that records a span (name, start, end,
parent). The package calls its own layers through module attributes
(``hsic.pairwise_sq_dists``, ``nn.sigmoid``, ...), so calls made inside
``src/`` are caught without editing it. Private helpers are not wrapped:
``nn.ACTIVATIONS`` holds ``_sigmoid`` by reference, so the sigmoid of
phase 2 is timed through the public ``nn.sigmoid`` attribute, whose span
includes ``_sigmoid``.

Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from pathlib import Path

MODULES = ("nn", "hsic", "affinity", "autoencoder", "meta", "hashing",
           "retrieval", "store", "cli", "datagen", "experiment")


class Tracer:
    """Flat span arrays: spans[i] = (name, start_ns, end_ns, parent index)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open = [-1]

    def _begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0)
        self._open.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def _end(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._begin(name)
        try:
            yield
        finally:
            self._end(i)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(i)
        return traced

    @contextlib.contextmanager
    def installed(self, package: str = "tailhash"):
        """Wrap every public function of MODULES; restore them on exit."""
        saved = []
        try:
            for short in MODULES:
                module = importlib.import_module(f"{package}.{short}")
                for attr, fn in list(vars(module).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{short}.{attr}", fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def stats(self) -> dict[str, dict]:
        """Per span name: call count and self time in seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the program is single-threaded.
        """
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (self.ends[i] - self.starts[i] - child_ns[i]) * 1e-9
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` that have an ``ancestor`` span above them."""
        count = 0
        for i, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            count += p >= 0
        return count

    def write(self, path: Path) -> None:
        """Write all spans as JSON: a name table and [name, start, end, parent]
        rows, times in ns relative to the first span."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0
        rows = [[index[n], s - t0, e - t0, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": table, "spans": rows},
                                   separators=(",", ":")))
