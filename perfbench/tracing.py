"""In-memory span recording around swarmchain's layer boundaries.

A traced run replaces each layer's public functions, at every name a
caller looks them up under, with a wrapper that records one span
(name, start, end, parent) per call.  Spans live in flat arrays so a run
with millions of calls stays within tens of megabytes.  After the run,
:meth:`Tracer.summary` derives per-name call counts, inclusive time (only
outermost spans of a name, so recursion is not double counted) and self
time (duration minus the spans directly nested in it).

Counters that are not timings (bytes encoded, distinct verify triples,
exchange outcomes) are fed from the same wrappers through ``on_return``
hooks, so every count is taken where the work happens.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class NameStats:
    """Aggregates over every span of one name."""

    calls: int
    inclusive_s: float
    self_s: float


class Tracer:
    """Span recorder for one traced run; single-threaded by design."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("H")
        self._parent = array("q")
        self._outer = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._open: list[int] = []  # per name id: spans of that name now open

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._open.append(0)
        return self.names.index(name)

    def begin(self, nid: int) -> int:
        """Open a span as a child of the innermost open span; return its index."""
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._outer.append(self._open[nid] == 0)
        self._end.append(0.0)
        self._open[nid] += 1
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was innermost")
        self._open[self._name[idx]] -= 1

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        on_return: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``func`` recording one span named ``name`` per call.

        ``on_return(args, result)`` runs after the span closes, so its
        bookkeeping is not charged to the traced layer.
        """

        nid = self.name_id(name)

        @wraps(func)
        def traced(*args, **kwargs):
            idx = self.begin(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(idx)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self._start)

    def summary(self) -> dict[str, NameStats]:
        """Per-name calls, inclusive seconds and self seconds over all spans."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        k = len(self.names)
        if not len(self):
            return {}
        name = np.frombuffer(self._name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        outer = np.frombuffer(self._outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name[outer], weights=dur[outer], minlength=k)
        self_time = np.bincount(name, weights=dur - child_time, minlength=k)
        return {
            self.names[i]: NameStats(int(calls[i]), float(inclusive[i]), float(self_time[i]))
            for i in range(k)
        }


def patch(
    tracer: Tracer,
    name: str,
    sites: list[tuple[object, str]],
    on_return: Callable[[tuple, Any], None] | None = None,
) -> None:
    """Wrap the function found at every site ``(owner, attribute)``.

    Modules bind helpers with ``from .crypto import sign``, so patching
    only the defining module would miss those callers.  Sites holding the
    same object share one wrapper.  A site missing from the code under
    test is reported on stderr and skipped, so a renamed helper shows up
    as a zero count rather than a crash.
    """
    wrappers: dict[int, Any] = {}
    for owner, attr in sites:
        current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if current is None:
            print(f"perfbench: {name}: {getattr(owner, '__name__', owner)}.{attr} not found", file=sys.stderr)
            continue
        if id(current) not in wrappers:
            wrappers[id(current)] = _wrap_descriptor(tracer, name, current, on_return)
        setattr(owner, attr, wrappers[id(current)])


def _wrap_descriptor(tracer: Tracer, name: str, original: Any, on_return) -> Any:
    if isinstance(original, classmethod):
        return classmethod(tracer.wrap(name, original.__func__, on_return))
    return tracer.wrap(name, original, on_return)


def patch_cached_property(tracer: Tracer, name: str, owner: type, attr: str) -> None:
    """Wrap the function behind a ``functools.cached_property``."""
    prop = owner.__dict__.get(attr)
    if prop is None or not hasattr(prop, "func"):
        print(f"perfbench: {name}: {owner.__name__}.{attr} is not a cached_property", file=sys.stderr)
        return
    prop.func = tracer.wrap(name, prop.func)
