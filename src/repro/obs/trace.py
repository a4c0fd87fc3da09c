"""Span-tree tracing with executor propagation and a slow-query log.

A *span* is one timed region of a query or write window (``query.plan``,
``shard.scan``, ``wal.commit`` …) with free-form tags.  Spans form a tree via
a thread-local "current span": :func:`span` opens a child of whatever is
current on the calling thread, and :func:`bind_current` captures the caller's
current span into a closure so a task submitted to the executor pool (or
stolen by a waiting thread — the closure travels with the task) records its
spans under the submitting query's tree, whichever thread runs it.

Tracing is **off by default** and enabled with ``REPRO_TRACE=1`` (or
:func:`set_tracing` in tests).  When off, :func:`span` yields ``None``
without allocating and :func:`bind_current` returns its argument — the whole
module costs one global read per instrumentation site.

Invisibility contract: spans record wall-clock and caller-provided tags only.
Nothing here reads a page, so enabling tracing cannot change a single I/O
accounting counter (pinned by ``tests/obs/test_invisibility.py``).

The :class:`SlowQueryLog` keeps the last N span trees whose root exceeded
``REPRO_SLOW_QUERY_MS`` (default 100 ms) together with per-term page/block
attribution supplied by the router.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping

from repro.errors import ObservabilityError

_TRACE_ENV = "REPRO_TRACE"
_SLOW_ENV = "REPRO_SLOW_QUERY_MS"

_DISABLED_VALUES = {"", "0", "false", "no", "off"}


def tracing_from_environ() -> bool:
    """Whether ``REPRO_TRACE`` asks for tracing (unset/0/false = off)."""
    return os.environ.get(_TRACE_ENV, "").strip().lower() not in _DISABLED_VALUES


def slow_query_threshold_from_environ() -> float:
    """``REPRO_SLOW_QUERY_MS`` as a float (default 100.0 ms)."""
    raw = os.environ.get(_SLOW_ENV, "").strip()
    if not raw:
        return 100.0
    try:
        value = float(raw)
    except ValueError:
        raise ObservabilityError(
            f"{_SLOW_ENV} must be a number of milliseconds, got {raw!r}"
        ) from None
    if value < 0:
        raise ObservabilityError(f"{_SLOW_ENV} must be >= 0, got {value}")
    return value


_enabled = tracing_from_environ()
_state = threading.local()


def tracing_enabled() -> bool:
    return _enabled


def set_tracing(enabled: bool) -> bool:
    """Force tracing on/off (tests and the dump CLI); returns the old value."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


class Span:
    """One timed node of a trace tree."""

    __slots__ = ("name", "tags", "children", "_started", "duration_ms")

    def __init__(self, name: str, tags: "dict[str, object] | None" = None) -> None:
        self.name = name
        self.tags = tags or {}
        #: Appended concurrently by shard workers; list.append is atomic.
        self.children: list[Span] = []
        self._started = time.perf_counter()
        self.duration_ms: "float | None" = None

    def close(self) -> None:
        if self.duration_ms is None:
            self.duration_ms = (time.perf_counter() - self._started) * 1000.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 4) if self.duration_ms is not None else None,
            "tags": dict(self.tags),
            "children": [child.to_dict() for child in self.children],
        }

    def tree_lines(self, indent: int = 0) -> list[str]:
        duration = f"{self.duration_ms:.3f}ms" if self.duration_ms is not None else "open"
        tags = "".join(f" {key}={value}" for key, value in self.tags.items())
        lines = [f"{'  ' * indent}{self.name} {duration}{tags}"]
        for child in self.children:
            lines.extend(child.tree_lines(indent + 1))
        return lines

    def format_tree(self) -> str:
        return "\n".join(self.tree_lines())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, duration_ms={self.duration_ms}, children={len(self.children)})"


def current_span() -> "Span | None":
    """The span currently open on this thread (None when untraced)."""
    return getattr(_state, "span", None)


@contextmanager
def span(name: str, **tags: object) -> "Iterator[Span | None]":
    """Open a child span of this thread's current span (no-op when disabled)."""
    if not _enabled:
        yield None
        return
    parent = getattr(_state, "span", None)
    node = Span(name, tags if tags else None)
    if parent is not None:
        parent.children.append(node)
    _state.span = node
    try:
        yield node
    finally:
        node.close()
        _state.span = parent


def bind_current(fn: Callable) -> Callable:
    """Bind the caller's current span into ``fn`` for cross-thread execution.

    The wrapper installs the captured span as the running thread's current
    span for the duration of the call (restoring whatever was there), so
    spans the task opens land under the submitting query's tree.  Because
    the binding lives in the returned closure, it holds on *any* executing
    thread — a shard executor worker or a caller that work-steals the task.
    """
    if not _enabled:
        return fn
    parent = getattr(_state, "span", None)
    if parent is None:
        return fn

    def bound(*args, **kwargs):
        previous = getattr(_state, "span", None)
        _state.span = parent
        try:
            return fn(*args, **kwargs)
        finally:
            _state.span = previous

    return bound


class SlowQueryLog:
    """Ring buffer of the slowest-query span trees with per-term attribution."""

    def __init__(self, capacity: int = 64,
                 threshold_ms: "float | None" = None) -> None:
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=capacity)
        self.threshold_ms = (slow_query_threshold_from_environ()
                             if threshold_ms is None else float(threshold_ms))

    def maybe_record(self, root: Span,
                     keywords: "tuple[str, ...] | list[str]" = (),
                     attribution: "Mapping[str, Mapping[str, int]] | None" = None,
                     ) -> "dict | None":
        """Record ``root`` when it ran longer than the threshold.

        ``attribution`` maps term -> ``{"pages_read": ..., "postings_scanned":
        ...}`` (the router's per-term stats merge).  Returns the recorded
        entry, or None when the query was fast enough.
        """
        if root.duration_ms is None or root.duration_ms < self.threshold_ms:
            return None
        entry = {
            "duration_ms": round(root.duration_ms, 4),
            "keywords": list(keywords),
            "terms": {term: dict(stats) for term, stats in (attribution or {}).items()},
            "tree": root.to_dict(),
        }
        with self._lock:
            self._entries.append(entry)
        return entry

    def entries(self) -> list[dict]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide slow-query log (per-router logs would fragment the one place
#: an operator looks; entries carry enough tags to tell engines apart).
SLOW_QUERIES = SlowQueryLog()
