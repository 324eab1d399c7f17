"""In-memory span tracer that wraps siotrust functions from the outside.

The program is not edited: `span()` and `count()` replace a class or
module attribute with a wrapper, and `restore()` puts every original back.
Each wrapped call is a span (name, parent, start, end), appended to arrays
owned by the calling thread, so the worker threads of `run_batch` never
share a list. Counting wrappers only tick a counter, or run a hook that
updates the calling thread's counts. Spans stay in memory until `save()`
writes them out; the tick counts are read when the wrappers are removed.

A span's self time is its duration minus the part of it that its child
spans cover. Children on the same thread nest, so their durations are
subtracted. Spans that open on a worker thread with nothing open beneath
them (the pooled `_run_one` calls) are children of the root span open on
the main thread, and the union of their intervals is subtracted from it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np

# hook(counts, args, kwargs, result) runs after a wrapped call returns
Hook = Callable[[Counter, tuple, dict, Any], None]

ROOT_SPAN = "cli.batch"


class _ThreadLog:
    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._logs: list[_ThreadLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._tickers: list[tuple[str, itertools.count]] = []
        self._counted: Counter = Counter()

    # -- installing wrappers ---------------------------------------------------

    def span(self, owner: Any, attr: str, name: str, hook: Hook | None = None) -> None:
        """Record every call of owner.attr as a span called `name`."""
        self._patch(owner, attr, lambda fn: self._span_wrapper(fn, name, hook))

    def count(self, owner: Any, attr: str, name: str, hook: Hook | None = None) -> None:
        """Count every call of owner.attr under `name`, without a span."""
        self._patch(owner, attr, lambda fn: self._count_wrapper(fn, name, hook))

    def restore(self) -> None:
        """Put every original back and collect the call counters."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for name, ticks in self._tickers:
            self._counted[name] += next(ticks)
        self._tickers.clear()

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _span_wrapper(self, fn: Callable, name: str, hook: Hook | None) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        log_of = self._log
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = log_of()
            index = len(log.name)
            log.name.append(nid)
            log.parent.append(log.stack[-1] if log.stack else -1)
            log.end.append(0.0)
            log.stack.append(index)
            log.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[index] = clock()
                log.stack.pop()
            if hook is not None:
                hook(log.counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, name: str, hook: Hook | None) -> Callable:
        if hook is None:
            # next() on an itertools.count is one C call, so the pool's two
            # threads cannot lose an update, and it is the cheapest per-call
            # cost for the functions called millions of times per seed
            ticks = itertools.count()
            self._tickers.append((name, ticks))

            @functools.wraps(fn)
            def ticking(*args, **kwargs):
                next(ticks)
                return fn(*args, **kwargs)

            return ticking

        log_of = self._log

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = log_of().counts
            counts[name] += 1
            hook(counts, args, kwargs, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def counts(self) -> Counter:
        total: Counter = Counter(self._counted)
        for log in self._logs:
            total.update(log.counts)
        return total

    def intervals(self, name: str) -> list[tuple[float, float]]:
        """(start, end) of every span called `name`, across threads, sorted."""
        nid = self._ids.get(name, -1)
        found: list[tuple[float, float]] = []
        for log in self._logs:
            names, _, start, end = log.arrays()
            picked = names == nid
            found.extend(zip(start[picked].tolist(), end[picked].tolist()))
        return sorted(found)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        totals = np.zeros(len(self.names))
        main = threading.main_thread().ident
        root = self._ids.get(ROOT_SPAN, -1)
        roots: list[tuple[float, float]] = []
        orphans: list[tuple[float, float]] = []
        for log in self._logs:
            names, parent, start, end = log.arrays()
            duration = end - start
            nested = parent >= 0
            covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(names))
            totals += np.bincount(names, weights=duration - covered, minlength=len(self.names))
            if log.ident == main:
                is_root = names == root
                roots.extend(zip(start[is_root].tolist(), end[is_root].tolist()))
            else:
                orphans.extend(zip(start[~nested].tolist(), end[~nested].tolist()))
        for begin, finish in roots:
            totals[root] -= union_length([(a, b) for a, b in orphans if begin <= a and b <= finish])
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        """Write every span as flat arrays, with the name table and thread index."""
        columns: list[list[np.ndarray]] = [[], [], [], [], []]
        for thread, log in enumerate(self._logs):
            arrays = log.arrays()
            for column, values in zip(columns, arrays):
                column.append(values)
            columns[4].append(np.full(len(arrays[0]), thread, dtype=np.int32))
        name, parent, start, end, thread = (
            np.concatenate(column) if column else np.zeros(0) for column in columns
        )
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end, thread=thread)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
