"""Span tracing of ptcsim's public functions, installed from outside the package.

Each traced function is wrapped at every binding through which callers
reach it: the defining module's attribute, every ``from ... import`` copy
in another ``ptcsim`` module, and class attributes for methods.  A span
(id, name, parent, start, end) is kept in memory per call and written out
when the run ends.  Counters are taken at the same boundaries by small
hooks that read the call's arguments or result.

A traced function that no longer exists is skipped; the metrics that
depend on it are then reported as absent instead of failing the run.
"""

from __future__ import annotations

import inspect
import itertools
import math
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Bytes per float64 element, for the sizes computed from array shapes.
F64 = 8


@dataclass(frozen=True)
class Target:
    """One function to trace.

    ``module`` and ``attr`` locate the definition (``attr`` may be
    ``Class.method``); ``span`` is the span name; ``hook`` builds the
    counter hook from the tracer and the original callable.
    """

    module: str
    attr: str
    span: str
    hook: Callable | None = None


class ArgReader:
    """Fast positional-or-keyword argument lookup for one signature."""

    def __init__(self, fn):
        self._params = inspect.signature(fn).parameters
        self._index = {name: i for i, name in enumerate(self._params)}

    def get(self, args, kwargs, name):
        i = self._index[name]
        if i < len(args):
            return args[i]
        if name in kwargs:
            return kwargs[name]
        return self._params[name].default


class Tracer:
    """Collects spans and boundary counters while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.installed: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, -math.inf):
            self.maxima[key] = value

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            after = hook(args, kwargs) if hook is not None else None
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is tracer._main_stack:
                parent = -1
            else:
                # A worker thread's first span belongs to whatever the main
                # thread is waiting in (run_sweep's thread pool).
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, nid, parent, start, end))
            if after is not None:
                after(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target that exists in the loaded ``ptcsim`` modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "ptcsim" or name.startswith("ptcsim."))
                   and m is not None]
        for target in targets:
            owner = sys.modules.get(target.module)
            cls_name, _, meth = target.attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                orig = None if owner is None else owner.__dict__.get(meth)
            else:
                orig = None if owner is None else getattr(owner, meth, None)
            if orig is None or not callable(orig):
                continue
            hook = target.hook(self, orig) if target.hook else None
            traced = self.wrap(target.span, orig, hook)
            if cls_name:
                self._rebind(owner, meth, traced)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, key, traced)
            self.installed.add(target.span)

    def _rebind(self, owner, key, new) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        """Put every original binding back (used by the benchmark's tests)."""
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns indexed by span id (ids are dense from 0)."""
        rows = sorted(self.spans)
        n = len(rows)
        out = {
            "name": np.fromiter((r[1] for r in rows), dtype=np.int32, count=n),
            "parent": np.fromiter((r[2] for r in rows), dtype=np.int64, count=n),
            "start": np.fromiter((r[3] for r in rows), dtype=np.float64, count=n),
            "end": np.fromiter((r[4] for r in rows), dtype=np.float64, count=n),
        }
        ids = np.fromiter((r[0] for r in rows), dtype=np.int64, count=n)
        if not np.array_equal(ids, np.arange(n)):
            raise RuntimeError("span ids are not dense; a span was lost")
        return out

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), **cols)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the part of its interval covered by child spans.

    Children of one parent may overlap when they ran on different threads,
    so the covered part is the union of their intervals.
    """
    covered = np.zeros(parent.size)
    order = np.lexsort((start, parent))
    cur_p, cur_s, cur_e = -1, 0.0, 0.0
    for i in order.tolist():
        p = int(parent[i])
        if p < 0:
            continue
        s, e = float(start[i]), float(end[i])
        if p != cur_p:
            if cur_p >= 0:
                covered[cur_p] += cur_e - cur_s
            cur_p, cur_s, cur_e = p, s, e
        elif s <= cur_e:
            cur_e = max(cur_e, e)
        else:
            covered[cur_p] += cur_e - cur_s
            cur_s, cur_e = s, e
    if cur_p >= 0:
        covered[cur_p] += cur_e - cur_s
    return (end - start) - covered
