"""Unified observability layer: tracing, metrics, events, exporters.

The engine's telemetry used to be fragmented — ``QueryStats`` per query,
``ShardLoad`` per run, fault counters per injector, buffer-pool stats per
shard — each with its own dialect.  This package is the shared substrate:

* :mod:`repro.obs.trace` — per-query / per-window span trees plus a
  slow-query log;
* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges and
  fixed-bucket latency histograms fed by the router, caches, the
  WAL and the retry/quarantine paths;
* :mod:`repro.obs.events` — a ring-buffered structured event log for
  lifecycle events (quarantine, reopen, recovery, checkpoint, escalation),
  router-owned per engine with a process-global fallback;
* :mod:`repro.obs.histogram` — the one percentile/histogram implementation
  every consumer (service driver, bench reporting, registry) shares;
* :mod:`repro.obs.timeseries` / :mod:`repro.obs.slo` — ring-buffered rolling
  windows over the registry (counter deltas → rates, histogram deltas →
  windowed p50/p95/p99) and multiwindow SLO burn-rate tracking on top;
* :mod:`repro.obs.explain` — query EXPLAIN / EXPLAIN ANALYZE: the per-term
  plan from the accounting-free peek path, optionally grafted with actuals
  (``python -m repro.obs.explain`` CLI);
* :mod:`repro.obs.snapshot` / :mod:`repro.obs.dump` — JSON and
  Prometheus-style exporters and the ``python -m repro.obs.dump`` CLI;
* :mod:`repro.obs.http` / :mod:`repro.obs.top` — the opt-in live monitoring
  endpoint (``/metrics``, ``/snapshot``, ``/slo``, ``/healthz``, ``/slow``)
  and the polling terminal dashboard.

Two invariants the test suite pins:

* **Accounting invisibility** — nothing in this package performs a storage
  access.  Spans and metrics record wall-clock and *existing* counter values,
  plans are described through peek reads, so fig7/table1 I/O fingerprints are
  bit-identical with tracing, sampling or EXPLAIN enabled.
* **Near-free when disabled** — every instrumentation site is a no-op branch
  when ``REPRO_TRACE`` is unset (spans) or collapses to one dict update per
  operation (metrics); the ``obs_overhead`` bench keeps the macro-query
  overhead within 5%.
"""

from repro.obs.events import (
    Event,
    EventLog,
    EVENTS,
    emit,
    event_log_capacity_from_environ,
)
from repro.obs.histogram import (
    DEFAULT_LATENCY_BUCKETS_MS,
    LatencyHistogram,
    percentile,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import DEFAULT_OBJECTIVES, SLObjective, SLOTracker
from repro.obs.timeseries import (
    MetricsSampler,
    SamplerDaemon,
    sample_interval_from_environ,
)
from repro.obs.trace import (
    SLOW_QUERIES,
    SlowQueryLog,
    Span,
    current_span,
    set_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "DEFAULT_OBJECTIVES",
    "EVENTS",
    "Event",
    "EventLog",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsSampler",
    "SLOW_QUERIES",
    "SLObjective",
    "SLOTracker",
    "SamplerDaemon",
    "SlowQueryLog",
    "Span",
    "current_span",
    "emit",
    "event_log_capacity_from_environ",
    "percentile",
    "sample_interval_from_environ",
    "set_tracing",
    "span",
    "tracing_enabled",
]
