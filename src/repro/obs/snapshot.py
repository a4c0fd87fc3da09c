"""Whole-engine observability snapshots and their exporters.

:func:`observability_snapshot` gathers everything one engine instance knows
about itself — registry metrics, per-shard lifetime I/O, list-cache
occupancy, WAL and fault counters, shard health, recent events, slow
queries — into one plain dict.  Every read is a counter read: building a
snapshot performs **zero** storage accesses, so taking one mid-experiment
cannot perturb an I/O fingerprint.

Two render targets sit on top: :func:`to_json` (machines) and
:func:`to_prometheus_text` (scrapers; the flat ``name{label=value}`` series
of the registry only, since events and span trees have no Prometheus shape).
"""

from __future__ import annotations

import json

from repro.errors import ObservabilityError
from repro.obs.events import EVENTS
from repro.obs.trace import SLOW_QUERIES, tracing_enabled


def _shard_io(env) -> list[dict]:
    """Lifetime I/O counters per shard (a plain env reports one shard)."""
    shards = getattr(env, "shards", None)
    if shards is None:
        shards = [env]
    rows = []
    for index, shard in enumerate(shards):
        snap = shard.snapshot()
        rows.append({
            "shard": index if len(shards) > 1 else None,
            "pool": {
                "hits": snap.pool.hits,
                "misses": snap.pool.misses,
                "evictions": snap.pool.evictions,
                "dirty_writebacks": snap.pool.dirty_writebacks,
            },
            "disk": {
                "reads": snap.disk.reads,
                "writes": snap.disk.writes,
                "random_reads": snap.disk.random_reads,
                "sequential_reads": snap.disk.sequential_reads,
                "bytes_read": snap.disk.bytes_read,
                "bytes_written": snap.disk.bytes_written,
            },
        })
    return rows


def _wal_stats(env) -> list[dict]:
    """Per-shard WAL counters (empty on memory backends)."""
    shards = getattr(env, "shards", None)
    if shards is None:
        shards = [env]
    rows = []
    for index, shard in enumerate(shards):
        wal = getattr(shard.disk, "wal", None)
        if wal is None:
            continue
        rows.append({
            "shard": index if len(shards) > 1 else None,
            "records_appended": wal.stats.records_appended,
            "batches_committed": wal.stats.batches_committed,
            "bytes_appended": wal.stats.bytes_appended,
            "truncations": wal.stats.truncations,
        })
    return rows


def _list_cache(index) -> "dict | None":
    cache = getattr(index, "list_cache", None)
    if cache is None:
        return None
    return {
        "budget_bytes": cache.budget_bytes,
        "used_bytes": cache.used_bytes,
        "entries": len(cache),
        "score_memo_entries": len(cache.scores),
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "evictions": cache.stats.evictions,
        "invalidations": cache.stats.invalidations,
    }


def observability_snapshot(engine) -> dict:
    """One structured snapshot of an engine's observable state.

    ``engine`` is an :class:`~repro.core.text_index.SVRTextIndex` (or
    anything exposing ``router`` and ``env`` the same way).  Events come from
    the router-owned log (scoped to this engine; the process-global stream is
    the fallback for routers predating the scoping); slow queries come from
    the process-global log — they are shared across engine instances by
    design.
    """
    router = getattr(engine, "router", None)
    if router is None:
        raise ObservabilityError(
            f"cannot snapshot {type(engine).__name__}: no router attached"
        )
    env = engine.env
    fault_stats = env.fault_stats()
    publish = getattr(router, "publish_gauges", None)
    if publish is not None:
        publish()
    events = getattr(router, "events", None)
    if events is None:
        events = EVENTS
    sampler = getattr(router, "sampler", None)
    slo = getattr(router, "slo", None)
    return {
        "engine": {
            "method": router.method_name,
            "shards": router.shard_count,
            "threads": router.threads,
            "durable": env.durable,
            "tracing": tracing_enabled(),
            "degraded": router.degraded,
            "combined_windows": router.combined_windows,
        },
        "metrics": router.metrics.snapshot(),
        "shard_io": _shard_io(env),
        "list_cache": _list_cache(router.index),
        "wal": _wal_stats(env),
        "fault_stats": None if fault_stats is None else {
            "injected": dict(fault_stats.injected),
            "retries": fault_stats.retries,
            "escalations": fault_stats.escalations,
        },
        "shard_health": [
            {
                "shard": health.shard,
                "quarantined": health.quarantined,
                "reason": health.reason,
                "failures": health.failures,
            }
            for health in router.shard_health()
        ],
        "events": [event.to_dict() for event in events.events()],
        "slow_queries": SLOW_QUERIES.entries(),
        "timeseries": None if sampler is None else sampler.snapshot(),
        "slo": None if slo is None else slo.status(),
    }


def to_json(snapshot: dict, indent: int = 2) -> str:
    """Render a snapshot as JSON (keys arrive pre-sorted where it matters)."""
    return json.dumps(snapshot, indent=indent, default=str)


#: ``# HELP`` text by metric name; series without an entry get a generic line.
_METRIC_HELP = {
    "query.count": "Queries answered by the router.",
    "query.latency_ms": "End-to-end query latency in milliseconds.",
    "query.pages_read": "Pages read from disk while answering queries.",
    "query.pool_hits": "Buffer-pool hits while answering queries.",
    "query.postings_scanned": "Postings decoded while answering queries.",
    "query.degraded": "Queries answered with quarantined shards excluded.",
    "update.count": "Score/document updates applied.",
    "update.window_ms": "Batched update window latency in milliseconds.",
    "update.windows": "Batched update windows applied.",
    "update.windows_combined": "Update windows combined by the group leader.",
    "update.batch_window": "Adaptive batch-window size chosen by the runner.",
    "shard.quarantined": "Shard quarantine transitions.",
    "shard.reopened": "Shard reopen (re-admission) transitions.",
    "shard.load_skew": "Max/mean of per-shard buffer-pool accesses (1.0 = balanced).",
    "pool.hit_rate": "Lifetime buffer-pool hit rate per shard.",
    "wal.buffered_bytes": "Uncommitted WAL buffer bytes per shard.",
    "list_cache.hits": "Inverted-list cache hits per shard.",
    "list_cache.misses": "Inverted-list cache misses per shard.",
}


def _escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def to_prometheus_text(engine) -> str:
    """Render the engine's registry in Prometheus text exposition format.

    Counters and gauges print as-is; histograms print the conventional
    ``_bucket``/``_sum``/``_count`` triplet with cumulative ``le`` buckets.
    Dots in series names become underscores (Prometheus naming rules), label
    values are escaped per the exposition format (backslash, double quote,
    newline), and each metric name carries ``# HELP``/``# TYPE`` headers
    exactly once.
    """
    router = getattr(engine, "router", None)
    if router is None:
        raise ObservabilityError(
            f"cannot export {type(engine).__name__}: no router attached"
        )
    publish = getattr(router, "publish_gauges", None)
    if publish is not None:
        publish()
    lines: list[str] = []
    headed: set[str] = set()

    def flat(name: str) -> str:
        return name.replace(".", "_")

    def head(name: str, kind: str) -> None:
        if name in headed:
            return
        headed.add(name)
        help_text = _METRIC_HELP.get(name, f"Engine series {name}.")
        lines.append(f"# HELP {flat(name)} {help_text}")
        lines.append(f"# TYPE {flat(name)} {kind}")

    def labelled(name: str, labels: tuple, extra: "tuple | None" = None) -> str:
        pairs = list(labels) + (list(extra) if extra else [])
        if not pairs:
            return flat(name)
        body = ",".join(
            f'{key}="{_escape_label_value(value)}"' for key, value in pairs
        )
        return f"{flat(name)}{{{body}}}"

    for kind, _rendered, name, labels, value in router.metrics.series():
        if kind in ("counter", "gauge"):
            head(name, kind)
            lines.append(f"{labelled(name, labels)} {value}")
        else:  # histogram snapshot dict with cumulative buckets
            head(name, "histogram")
            for bound, cumulative in value["buckets"]:
                lines.append(
                    f"{labelled(name + '_bucket', labels, (('le', bound),))} "
                    f"{cumulative}"
                )
            lines.append(
                f"{labelled(name + '_bucket', labels, (('le', '+Inf'),))} "
                f"{value['count']}"
            )
            lines.append(f"{labelled(name + '_sum', labels)} {value['sum']}")
            lines.append(f"{labelled(name + '_count', labels)} {value['count']}")
    return "\n".join(lines) + "\n"
