"""Thread-safe metrics registry: counters, gauges, latency histograms.

One :class:`MetricsRegistry` lives on each :class:`~repro.core.index_router.
IndexRouter` and is shared by everything in that engine instance — the router
itself, the hot-term list cache, and the bench/workload
exporters.  All mutation goes through one lock, which is what makes the
per-shard aggregation of racy per-query counters (``postings_scanned``,
cache hits) exact rather than best-effort.

Metric names are dotted strings (``query.count``, ``list_cache.hits``);
labels are keyword arguments canonicalised into a sorted tuple, so
``shard=3`` always lands on the same series.  The registry never touches
storage — feeding it is always reading an *existing* counter or a clock.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from repro.obs.histogram import DEFAULT_LATENCY_BUCKETS_MS, LatencyHistogram

_LabelKey = tuple[tuple[str, object], ...]


def _labels_key(labels: Mapping[str, object]) -> _LabelKey:
    return tuple(sorted(labels.items()))


def render_series(name: str, labels: _LabelKey) -> str:
    """Human/JSON-facing series name: ``shard.pages_read{shard=3}``."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Counters, gauges and latency histograms behind one lock."""

    def __init__(self,
                 histogram_bounds: "Iterable[float]" = DEFAULT_LATENCY_BUCKETS_MS,
                 ) -> None:
        self._lock = threading.Lock()
        self._bounds = tuple(histogram_bounds)
        self._counters: dict[tuple[str, _LabelKey], float] = {}
        self._gauges: dict[tuple[str, _LabelKey], float] = {}
        self._histograms: dict[tuple[str, _LabelKey], LatencyHistogram] = {}

    # -- writers ---------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def add_many(self, values: Mapping[str, float], **labels: object) -> None:
        """Add several counters under one lock round trip (the hot path)."""
        label_key = _labels_key(labels)
        with self._lock:
            counters = self._counters
            for name, value in values.items():
                key = (name, label_key)
                counters[key] = counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        with self._lock:
            self._gauges[(name, _labels_key(labels))] = value

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = LatencyHistogram(self._bounds)
            histogram.observe(value)

    # -- readers ---------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        with self._lock:
            return self._counters.get((name, _labels_key(labels)), 0.0)

    def gauge_value(self, name: str, **labels: object) -> float:
        with self._lock:
            return self._gauges.get((name, _labels_key(labels)), 0.0)

    def histogram(self, name: str, **labels: object) -> "LatencyHistogram | None":
        with self._lock:
            return self._histograms.get((name, _labels_key(labels)))

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> dict:
        """Plain-data copy: ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``.

        Series names are rendered (labels inline); values are plain floats /
        histogram snapshots, so the result is JSON-serialisable as-is.
        """
        with self._lock:
            counters = {render_series(name, labels): value
                        for (name, labels), value in self._counters.items()}
            gauges = {render_series(name, labels): value
                      for (name, labels), value in self._gauges.items()}
            histograms = {render_series(name, labels): hist.snapshot()
                          for (name, labels), hist in self._histograms.items()}
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def series(self) -> "list[tuple[str, str, str, _LabelKey, object]]":
        """Typed series listing for the Prometheus exporter.

        Yields ``(kind, rendered, name, labels, value)`` with ``kind`` one of
        ``counter``/``gauge``/``histogram``.
        """
        def ordered(table):  # label values may mix types; sort on rendered text
            return sorted(table.items(),
                          key=lambda item: render_series(item[0][0], item[0][1]))

        out: list[tuple[str, str, str, _LabelKey, object]] = []
        with self._lock:
            for (name, labels), value in ordered(self._counters):
                out.append(("counter", render_series(name, labels), name, labels, value))
            for (name, labels), value in ordered(self._gauges):
                out.append(("gauge", render_series(name, labels), name, labels, value))
            for (name, labels), hist in ordered(self._histograms):
                out.append(("histogram", render_series(name, labels), name, labels,
                            hist.snapshot()))
        return out
