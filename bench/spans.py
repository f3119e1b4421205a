"""Span tracing of uavqkd's layers from outside the package.

``install`` wraps the public functions of each module and rebinds every
name that refers to them, in the defining module and in every uavqkd
module that imported the function by name (``analytics`` and
``montecarlo`` import ``capture_grid``/``capture_exact_many``, ``cli``
imports ``sweep``/``optimize``, ``sweep`` imports ``build_context``). Each
call records one span: name, start, end, parent span and op id. Spans
stay in memory, in flat arrays, until the run ends; ``self_times`` then
takes each span's duration minus the union of its children's intervals.

A worker thread has no open span of its own when the package hands it a
batch, so its spans take the innermost open span of the main thread as
parent (the ``montecarlo.run`` call that started the pool).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: list[int]) -> int:
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        return idx

    def wrap(self, name, fn, count=None):
        """Traced version of ``fn``. ``name`` is a string or a function of
        (args, kwargs) returning one; ``count(counts, args, kwargs, result)``
        adds work counts after a call returns."""
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            stack = self._stack()
            idx = self._open(span_name, stack)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{span_name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def calls(self) -> Counter:
        out: Counter = Counter()
        for nid in self.name:
            out[self.names[nid]] += 1
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        totals: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            covered = 0.0
            kids = children.get(i)
            if kids:
                reach = -1.0
                for k in sorted(kids, key=self.start.__getitem__):
                    s, e = self.start[k], self.end[k]
                    if e > reach:
                        covered += e - max(s, reach)
                        reach = e
            totals[self.names[self.name[i]]] += (self.end[i] - self.start[i]) - covered
        return dict(totals)

    def child_counts(self, parent_name: str) -> Counter:
        """Calls per span name whose direct parent is a ``parent_name`` span."""
        out: Counter = Counter()
        for i, p in enumerate(self.parent):
            if p >= 0 and self.names[self.name[p]] == parent_name:
                out[self.names[self.name[i]]] += 1
        return out


def install(tracer: Tracer, targets) -> callable:
    """Wrap each (module, attribute, name, count) target and rebind it in
    every loaded uavqkd module; return a function that undoes it."""
    modules = [m for n, m in list(sys.modules.items()) if n == "uavqkd" or n.startswith("uavqkd.")]
    undo = []
    for module, attr, name, count in targets:
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, count)
        for m in modules:
            if m.__dict__.get(attr) is original:
                setattr(m, attr, traced)
                undo.append((m, attr, original))

    def restore():
        for m, attr, original in reversed(undo):
            setattr(m, attr, original)

    return restore
