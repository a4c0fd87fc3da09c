"""Closed-loop concurrent service workload with a latency profile.

:class:`~repro.workloads.multiclient.MultiClientDriver` replays mixed
query/update traffic *single-threadedly* (round-robin), which is what the
determinism harnesses need.  :class:`ServiceLoadDriver` replays the **same
per-client schedules** the way a service actually runs them: one thread per
client, closed-loop (each client issues its next operation as soon as the
previous one returns), against an index built for concurrent clients
(``SVRTextIndex(shards=N, threads=M)`` with ``M > 1``): every operation runs
on its client's thread under the engine lock, and update windows that arrive
together are combined into one batch.

Besides aggregate throughput the driver records what a service cares about —
the *latency profile*: per-operation wall times with p50/p95/p99 summaries
for queries and update windows, exported into ``metrics.extra`` by
:meth:`ServiceLoadResult.record_into`.  An optional background checkpointer
exercises durability under load: on a file-backed index it group-commits and
folds the WAL on a wall-clock cadence while the clients keep hammering.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

#: Interpreter preemption quantum during a service replay.  Closed-loop
#: clients yield voluntarily at every lock/gather point, so a coarse quantum
#: just stops the interpreter from preempting a client mid-operation (which
#: costs cache locality and lengthens tail latency) without hurting fairness.
_SERVICE_SWITCH_INTERVAL_S = 0.02

from repro.errors import ObservabilityError, WorkloadError
from repro.obs.histogram import percentile as _obs_percentile
from repro.storage.sharding import ShardLoad, shard_load
from repro.workloads.multiclient import MultiClientConfig, schedule_client_ops
from repro.workloads.queries import KeywordQuery
from repro.workloads.updates import ScoreUpdate, resolve_batch


def percentile(values: "Sequence[float]", fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]; 0.0 for no samples).

    The one implementation lives in :mod:`repro.obs.histogram`; this wrapper
    keeps the workload-facing error contract (:class:`WorkloadError`).
    """
    try:
        return _obs_percentile(values, fraction)
    except ObservabilityError as exc:
        raise WorkloadError(str(exc)) from None


@dataclass(frozen=True)
class ServiceLoadConfig:
    """Parameters of the closed-loop concurrent replay."""

    num_clients: int = 4
    query_fraction: float = 0.5   # probability a client's next op is a query
    batch_window: int = 32        # score updates applied per update operation
    seed: int = 31
    #: Background checkpoint cadence in seconds (None = no checkpointer).
    checkpoint_interval_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.checkpoint_interval_s is not None and self.checkpoint_interval_s <= 0:
            raise WorkloadError("checkpoint_interval_s must be positive")

    def scheduling(self) -> MultiClientConfig:
        """The deterministic per-client scheduling shared with MultiClientDriver."""
        return MultiClientConfig(
            num_clients=self.num_clients,
            query_fraction=self.query_fraction,
            batch_window=self.batch_window,
            seed=self.seed,
        )


@dataclass
class ServiceClientStats:
    """One concurrent client's operation counts."""

    client_id: int
    queries: int = 0
    update_windows: int = 0
    updates: int = 0


@dataclass
class ServiceLoadResult:
    """Latency-profiled outcome of one concurrent service replay."""

    clients: list[ServiceClientStats] = field(default_factory=list)
    queries_run: int = 0
    updates_applied: int = 0
    update_windows: int = 0
    wall_seconds: float = 0.0
    query_latencies_ms: list[float] = field(default_factory=list)
    window_latencies_ms: list[float] = field(default_factory=list)
    checkpoints: int = 0
    combined_windows: int = 0
    pages_read: int = 0
    pages_written: int = 0
    pool_hits: int = 0
    shard_load: "ShardLoad | None" = None

    @property
    def operations(self) -> int:
        """Client operations completed (queries + update windows)."""
        return self.queries_run + self.update_windows

    @property
    def throughput_ops_s(self) -> float:
        """Queries + individual updates completed per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return (self.queries_run + self.updates_applied) / self.wall_seconds

    def query_latency_ms(self, fraction: float) -> float:
        return percentile(self.query_latencies_ms, fraction)

    def window_latency_ms(self, fraction: float) -> float:
        return percentile(self.window_latencies_ms, fraction)

    def record_into(self, metrics) -> None:
        """Export the latency profile into ``metrics.extra``.

        ``metrics`` is a :class:`~repro.bench.metrics.OperationMetrics`; the
        keys follow the service-dashboard convention (milliseconds, and an
        aggregate ops/s figure covering queries plus individual updates).
        """
        metrics.extra["clients"] = float(len(self.clients))
        metrics.extra["throughput_ops_s"] = round(self.throughput_ops_s, 1)
        metrics.extra["p50_query_ms"] = round(self.query_latency_ms(0.50), 4)
        metrics.extra["p95_query_ms"] = round(self.query_latency_ms(0.95), 4)
        metrics.extra["p99_query_ms"] = round(self.query_latency_ms(0.99), 4)
        metrics.extra["p999_query_ms"] = round(self.query_latency_ms(0.999), 4)
        metrics.extra["max_query_ms"] = round(
            max(self.query_latencies_ms, default=0.0), 4)
        metrics.extra["p50_window_ms"] = round(self.window_latency_ms(0.50), 4)
        metrics.extra["p95_window_ms"] = round(self.window_latency_ms(0.95), 4)
        metrics.extra["p99_window_ms"] = round(self.window_latency_ms(0.99), 4)
        metrics.extra["p999_window_ms"] = round(self.window_latency_ms(0.999), 4)
        metrics.extra["max_window_ms"] = round(
            max(self.window_latencies_ms, default=0.0), 4)
        metrics.extra["checkpoints"] = float(self.checkpoints)
        metrics.extra["combined_windows"] = float(self.combined_windows)
        if self.shard_load is not None:
            metrics.extra["shards"] = float(self.shard_load.shard_count)
            metrics.extra["shard_skew"] = round(self.shard_load.skew, 4)

    def as_row(self) -> dict[str, float | int]:
        """Flat representation for experiment tables."""
        return {
            "clients": len(self.clients),
            "queries": self.queries_run,
            "updates": self.updates_applied,
            "wall_s": round(self.wall_seconds, 3),
            "ops_per_s": round(self.throughput_ops_s, 1),
            "p50_query_ms": round(self.query_latency_ms(0.50), 3),
            "p95_query_ms": round(self.query_latency_ms(0.95), 3),
            "p99_query_ms": round(self.query_latency_ms(0.99), 3),
            "combined_windows": self.combined_windows,
            "checkpoints": self.checkpoints,
        }


class _Checkpointer(threading.Thread):
    """Background thread checkpointing the index on a wall-clock cadence."""

    def __init__(self, index, interval_s: float) -> None:
        super().__init__(name="repro-service-checkpointer", daemon=True)
        self._index = index
        self._interval = interval_s
        self._halt = threading.Event()
        self.checkpoints = 0
        self.error: "BaseException | None" = None

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                self._index.checkpoint()
                self.checkpoints += 1
            except BaseException as exc:
                self.error = exc
                return

    def finish(self) -> None:
        self._halt.set()
        self.join()


class ServiceLoadDriver:
    """Replays per-client schedules from concurrent closed-loop client threads.

    The schedules are exactly :func:`~repro.workloads.multiclient.schedule_client_ops`
    of the equivalent :class:`MultiClientConfig`, so a serial round-robin
    replay and a concurrent replay perform the same logical operations —
    only the interleaving (and hence wall-clock) differs.
    """

    def __init__(self, config: ServiceLoadConfig,
                 queries: Sequence[KeywordQuery],
                 updates: Sequence[ScoreUpdate]) -> None:
        self.config = config
        scheduling = config.scheduling()
        self._client_ops = [
            schedule_client_ops(scheduling, client_id,
                                list(queries[client_id::config.num_clients]),
                                list(updates[client_id::config.num_clients]))
            for client_id in range(config.num_clients)
        ]

    def client_schedules(self) -> list[list]:
        """The per-client operation sequences (inspection and tests)."""
        return [list(ops) for ops in self._client_ops]

    def _run_client(self, index, client_id: int, stats: ServiceClientStats,
                    result: ServiceLoadResult, start_barrier: threading.Barrier,
                    record_lock: threading.Lock,
                    errors: list) -> None:
        try:
            start_barrier.wait()
            for kind, payload in self._client_ops[client_id]:
                if kind == "query":
                    query: KeywordQuery = payload  # type: ignore[assignment]
                    started = time.perf_counter()
                    index.search(query.keywords, k=query.k,
                                 conjunctive=query.conjunctive)
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    with record_lock:
                        result.query_latencies_ms.append(elapsed_ms)
                        result.queries_run += 1
                    stats.queries += 1
                else:
                    window: list[ScoreUpdate] = payload  # type: ignore[assignment]
                    started = time.perf_counter()
                    touched = {update.doc_id for update in window}
                    current = index.current_scores(touched)
                    resolved = resolve_batch(window, current)
                    applied = index.apply_score_updates(resolved) if resolved else 0
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    with record_lock:
                        result.window_latencies_ms.append(elapsed_ms)
                        result.update_windows += 1
                        result.updates_applied += applied
                    stats.update_windows += 1
                    stats.updates += applied
        except BaseException as exc:
            errors.append((client_id, exc))
            try:
                start_barrier.abort()
            except BaseException:
                pass

    def run(self, index) -> ServiceLoadResult:
        """Run every client thread to completion against ``index``.

        ``index`` is an ``SVRTextIndex``; with ``threads > 1`` its router
        serializes operations under the engine lock and combines update
        windows that arrive together, which is the configuration this driver
        exists to measure.  Raises the first client
        (or checkpointer) error after all threads have stopped.
        """
        result = ServiceLoadResult(
            clients=[ServiceClientStats(client_id=i)
                     for i in range(self.config.num_clients)]
        )
        record_lock = threading.Lock()
        errors: list = []
        combined_before = getattr(index.router, "combined_windows", 0)
        env_before = index.env.snapshot()
        load_before = shard_load(index.env)
        barrier = threading.Barrier(self.config.num_clients + 1)
        workers = [
            threading.Thread(
                target=self._run_client,
                args=(index, client_id, result.clients[client_id], result,
                      barrier, record_lock, errors),
                name=f"repro-service-client-{client_id}",
                daemon=True,
            )
            for client_id in range(self.config.num_clients)
        ]
        checkpointer: "_Checkpointer | None" = None
        if self.config.checkpoint_interval_s is not None:
            checkpointer = _Checkpointer(index, self.config.checkpoint_interval_s)
        previous_switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(_SERVICE_SWITCH_INTERVAL_S)
        try:
            for worker in workers:
                worker.start()
            try:
                barrier.wait()
                started = time.perf_counter()
            except threading.BrokenBarrierError:
                started = time.perf_counter()
            if checkpointer is not None:
                checkpointer.start()
            for worker in workers:
                worker.join()
            result.wall_seconds = time.perf_counter() - started
            if checkpointer is not None:
                checkpointer.finish()
                result.checkpoints = checkpointer.checkpoints
                if checkpointer.error is not None:
                    errors.append(("checkpointer", checkpointer.error))
        finally:
            sys.setswitchinterval(previous_switch_interval)
        # Close out the storm's final (partial) time-series window and refresh
        # SLO burn status + storage gauges, so a scraper (or the endpoint
        # smoke test) reads a profile covering the whole replay rather than
        # whatever the last hot-path tick happened to see.
        obs_roll = getattr(index.router, "_obs_roll", None)
        if obs_roll is not None:
            obs_roll()
        delta = index.env.delta_since(env_before)
        result.pages_read = delta.page_reads
        result.pages_written = delta.page_writes
        result.pool_hits = delta.pool_hits
        result.shard_load = shard_load(index.env).diff(load_before)
        result.combined_windows = (
            getattr(index.router, "combined_windows", 0) - combined_before
        )
        if errors:
            source, error = errors[0]
            raise RuntimeError(
                f"service client {source!r} failed: {error!r}"
            ) from error
        return result
