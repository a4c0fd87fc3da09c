"""The unified front door over a (possibly term-partitioned) index.

:class:`IndexRouter` hides the sharding layer behind the exact
:class:`~repro.core.indexes.base.InvertedIndex` operational API: callers
insert/delete/update documents, apply batched score updates and run top-k
queries without knowing how many :class:`StorageEnvironment` instances back
the term space.  On top of the delegated API it exposes the shard-level
observability the experiments need — the term→shard resolver, per-shard I/O
snapshots/deltas, and the lifetime load/skew report.

With ``threads=1`` (the default) the router adds no storage behaviour of its
own: every keyed operation is routed inside the store facades
(:mod:`repro.storage.sharding`), so a router over a single-shard (or plain)
environment is fingerprint-identical to the classic engine.

With ``threads > 1`` the router becomes the concurrent execution subsystem's
coordinator (see :mod:`repro.exec` and ARCHITECTURE.md "Concurrent
execution"):

* **Parallel query fan-out** — a query takes a per-shard epoch snapshot,
  scatters its per-term top-k scans to the owning shard executors through
  block-prefetching stream pumps, and gathers the partial results through the
  k-way merge into the method's existing result heap.  Queries run
  concurrently with each other under a shared lock.
* **Single-writer updates with window combining** — anything that mutates
  index state runs under the writer lock; batched update windows that queue
  while a writer (or readers) hold the lock are drained *together* and
  applied as one combined batch, whose per-shard sub-batches execute
  concurrently across the shard executors.  Combining is semantically exact:
  ``apply_batch`` is defined to equal sequential application, so
  concatenating windows in ticket order preserves contents and top-k.
* **Deterministic accounting mode** — ``deterministic=True`` keeps the worker
  pool (bulk writes still fan out across shards, which is accounting-exact
  because every shard's operation sequence is unchanged and aggregate
  counters are per-category sums) but serializes whole operations and skips
  the query pumps, making every I/O fingerprint identical to the serial
  engine for *any* thread count.  ``REPRO_THREADS`` runs the tier-1 suite in
  this mode.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.indexes.base import (
    InvertedIndex,
    QueryResponse,
    QueryStats,
    UpdateStats,
)
from repro.core.indexes.registry import create_index
from repro.core.list_cache import list_cache_pages_from_environ
from repro.errors import (
    HARD_FAULT_ERRORS,
    ExecutorError,
    ReproError,
    ShardQuarantinedError,
    StorageError,
    shard_of_error,
)
from repro.exec import ExecutorPool, ReadWriteLock, pump_plans
from repro.exec.fanout import DEFAULT_BLOCK_SIZE, INITIAL_BLOCK_SIZE
from repro.obs.events import EventLog, event_log_capacity_from_environ
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOTracker
from repro.obs.timeseries import (
    MetricsSampler,
    SamplerDaemon,
    sample_interval_from_environ,
)
from repro.obs.trace import SLOW_QUERIES, current_span, span, tracing_enabled
from repro.storage.environment import IOSnapshot, StorageEnvironment
from repro.storage.sharding import (
    ShardedEnvironment,
    ShardLoad,
    shard_load,
    shard_of_doc,
    shard_of_term,
)
from repro.text.documents import DocumentStore


def threads_from_environ() -> int:
    """Worker-thread default from ``REPRO_THREADS`` (1 when unset/invalid).

    The CI threaded leg sets ``REPRO_THREADS=4`` to rerun the tier-1 suite
    through the concurrent router; indexes built through that default run in
    deterministic-accounting mode so every fingerprint assertion still holds.
    """
    raw = os.environ.get("REPRO_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class ShardHealth:
    """One shard's failure-domain status as the router sees it."""

    shard: int
    quarantined: bool
    reason: "str | None" = None
    failures: int = 0


class _UpdateTicket:
    """One caller's update window waiting in the write-combining queue."""

    __slots__ = ("updates", "applied", "error", "event")

    def __init__(self, updates: list) -> None:
        self.updates = updates
        self.applied = 0
        self.error: BaseException | None = None
        self.event = threading.Event()

    def resolve(self) -> int:
        if self.error is not None:
            raise self.error
        return self.applied


class IndexRouter:
    """Route the ``InvertedIndex`` API over N term-partitioned environments.

    Wraps an existing index (``IndexRouter(index)``); use :meth:`build` to
    construct the environment, document store and index method in one call.

    Parameters
    ----------
    index:
        The wrapped index method.
    threads:
        Worker-thread budget for the concurrent execution subsystem.  ``1``
        (the default) creates no threads and no locks — the serial engine.
    deterministic:
        Serialize operations and skip the query pumps so I/O accounting is
        fingerprint-identical to the serial engine at any thread count.
        Defaults to ``False``; forced ``True`` when the environment is not
        sharded (the parallel fan-out needs the facade layer's latches).
    block_size:
        Postings per stream-pump block in the parallel query fan-out.
    combine_window_s:
        Group-commit gather interval: how long the leading update window of
        a drain parks so concurrent clients can enqueue theirs (see
        :meth:`_apply_batch_combined`).  The pause is paid once per *drain*
        (a lone client pays it per window — the same latency-for-throughput
        trade as a fixed fsync group-commit interval); zero disables
        gathering entirely.
    """

    def __init__(self, index: InvertedIndex, threads: int = 1,
                 deterministic: bool = False,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 initial_block: int = INITIAL_BLOCK_SIZE,
                 combine_window_s: float = 0.001) -> None:
        self.index = index
        self.env = index.env
        self.threads = max(1, int(threads))
        self.block_size = block_size
        self.initial_block = initial_block
        self.combine_window_s = max(0.0, combine_window_s)
        self._pool: ExecutorPool | None = None
        self._lock: ReadWriteLock | None = None
        self._pending: "deque[_UpdateTicket]" = deque()
        self._pending_lock = threading.Lock()
        self.combined_windows = 0
        #: Quarantined failure domains: shard index -> reason.  Guarded by
        #: ``_health_lock`` (quarantine decisions can race on the concurrent
        #: engine); reads of the bare dict are snapshot-consistent enough for
        #: the fast-path emptiness checks.
        self._quarantined: dict[int, str] = {}
        self._shard_failures: dict[int, int] = {}
        self._health_lock = threading.Lock()
        #: Engine-wide metrics registry: the router, the executor pool and
        #: the hot-term list cache all feed it (see :mod:`repro.obs`).
        self.metrics = MetricsRegistry()
        if index.list_cache is not None:
            index.list_cache.metrics = self.metrics
        #: Router-owned event log: shard lifecycle, checkpoint and SLO burn
        #: events for *this* engine (capacity from ``REPRO_EVENT_LOG_CAP``).
        #: The module-level ``repro.obs.events.EVENTS`` log remains the
        #: fallback for emitters that run before any router exists
        #: (standalone recovery, the fault injector's escalation notes).
        self.events = EventLog(capacity=event_log_capacity_from_environ())
        self._attach_event_sinks()
        #: Rolling time-series windows plus SLO burn-rate tracking, advanced
        #: from the query/update paths (:meth:`_obs_tick`); setting
        #: ``REPRO_OBS_SAMPLE_MS`` adds a fixed-cadence daemon so windows
        #: keep rolling on an idle engine.
        self.sampler = MetricsSampler(self.metrics)
        self.slo = SLOTracker(self.sampler, metrics=self.metrics,
                              events=self.events)
        self._sampler_daemon: "SamplerDaemon | None" = None
        interval_s = sample_interval_from_environ()
        if interval_s is not None:
            self._sampler_daemon = SamplerDaemon(interval_s, self._obs_roll)
            self._sampler_daemon.start()
        if self.threads > 1 and not isinstance(self.env, ShardedEnvironment):
            # Without the facade layer there are no per-shard latches to
            # protect concurrent readers; run serialized instead of unsafely.
            deterministic = True
        self.deterministic = bool(deterministic)
        if self.threads > 1:
            self._pool = ExecutorPool(self.shard_count, threads=self.threads)
            self._pool.metrics = self.metrics
            self._lock = ReadWriteLock()
            if isinstance(self.env, ShardedEnvironment) and not self.deterministic:
                # Deterministic mode serializes whole operations, so the
                # facades need no latches — and must not get them, because
                # latched range scans trade laziness for isolation and an
                # eagerly drained prefix scan would charge I/O past the
                # serial engine's early-termination point.
                self.env.attach_execution(self._pool)

    @classmethod
    def build(cls, method: str, shard_count: int = 1,
              documents: DocumentStore | None = None, name: str = "svr",
              cache_pages: int = 4096, page_size: int = 4096,
              env: "StorageEnvironment | ShardedEnvironment | None" = None,
              threads: int = 1, deterministic: bool = False,
              **options: Any) -> "IndexRouter":
        """Create a sharded environment plus an index method routed over it.

        When the hot-term list cache is enabled (``list_cache_pages`` option
        or ``REPRO_LIST_CACHE_PAGES``), its budget is carved *out of*
        ``cache_pages`` before the environment is sized, so a cache-on
        configuration holds the same total memory as cache-off — the cache
        competes with the buffer pool rather than adding on top of it.
        """
        list_cache_pages = options.get("list_cache_pages")
        if list_cache_pages is None:
            list_cache_pages = list_cache_pages_from_environ()
            options["list_cache_pages"] = list_cache_pages
        if env is None:
            pool_pages = cache_pages
            if list_cache_pages:
                if list_cache_pages >= cache_pages:
                    raise StorageError(
                        f"list_cache_pages ({list_cache_pages}) must be smaller "
                        f"than cache_pages ({cache_pages}) — the hot-term cache "
                        "budget is split from the buffer pool, not added to it"
                    )
                pool_pages = cache_pages - list_cache_pages
            env = ShardedEnvironment(
                shard_count=shard_count, cache_pages=pool_pages, page_size=page_size
            )
        if documents is None:
            documents = DocumentStore()
        return cls(create_index(method, env, documents, name=name, **options),
                   threads=threads, deterministic=deterministic)

    # -- concurrency plumbing ------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Whether queries fan out and update windows combine across threads."""
        return (self._pool is not None and self._pool.parallel
                and not self.deterministic)

    def _read_ctx(self):
        """Shared-mode context for queries and point reads."""
        if self._lock is None:
            return nullcontext()
        if self.deterministic:
            # Deterministic accounting: reads also change buffer-pool state
            # (LRU order, evictions), so even queries run one at a time.
            return self._lock.write_locked()
        return self._lock.read_locked()

    def _write_ctx(self):
        """Exclusive-mode context for anything that mutates index state."""
        if self._lock is None:
            return nullcontext()
        return self._lock.write_locked()

    def exclusive(self):
        """Writer-exclusive context for maintenance work (commit, checkpoint).

        The storage facades flush buffer pools during these operations, so
        they must not overlap queries or update windows.  A plain no-op
        context on the serial engine.
        """
        return self._write_ctx()

    def shutdown(self) -> None:
        """Stop the executor pool (idempotent; a no-op on the serial engine)."""
        if self._sampler_daemon is not None:
            self._sampler_daemon.stop()
            self._sampler_daemon = None
        if self._pool is not None:
            self._pool.close()

    # -- observability plumbing ----------------------------------------------------

    def _attach_event_sinks(self) -> None:
        """Route shard-environment events (checkpoints) into this router's log.

        Must be re-run whenever a shard's environment object is replaced
        (:meth:`reopen_shard` swaps in a recovered one).
        """
        if isinstance(self.env, ShardedEnvironment):
            for shard_env in self.env.shards:
                shard_env.event_sink = self.events
        else:
            self.env.event_sink = self.events

    def publish_gauges(self) -> None:
        """Refresh the gauges derived from storage-layer state.

        These are the numbers that only exist as live state (not as events
        the hot paths could increment): buffer-pool hit rates, WAL buffered
        bytes, and the lifetime shard-load skew.  Reading them is pure
        counter arithmetic — no accounted storage access — so exporters call
        this freely before every render.
        """
        self.metrics.set_gauge("shard.load_skew", self.shard_load().skew)
        if isinstance(self.env, ShardedEnvironment):
            shard_envs = self.env.shards
        else:
            shard_envs = [self.env]
        for shard_env in shard_envs:
            labels = ({} if shard_env.obs_shard is None
                      else {"shard": shard_env.obs_shard})
            self.metrics.set_gauge(
                "pool.hit_rate", shard_env.pool.hit_rate(), **labels
            )
            # Only the file-backed disk buffers WAL bytes; the simulated
            # disk reports a constant 0.
            self.metrics.set_gauge(
                "wal.buffered_bytes",
                float(getattr(shard_env.disk, "_buffered_bytes", 0)),
                **labels,
            )

    def _obs_tick(self) -> None:
        """Hot-path sampler advance: one clock read until a window is due."""
        if self.sampler.tick() is not None:
            self.publish_gauges()
            self.slo.evaluate()

    def _obs_roll(self) -> None:
        """Forced window roll + SLO evaluation (daemon cadence, tests)."""
        self.publish_gauges()
        if self.sampler.roll() is not None:
            self.slo.evaluate()

    # -- shard observability -----------------------------------------------------

    @property
    def shard_count(self) -> int:
        """Number of term-space partitions (1 for a plain environment)."""
        if isinstance(self.env, ShardedEnvironment):
            return self.env.shard_count
        return 1

    def shard_of_term(self, term: str) -> int:
        """The shard owning a term's inverted lists."""
        return shard_of_term(term, self.shard_count)

    def shard_snapshots(self) -> list[IOSnapshot]:
        """Per-shard I/O snapshots (a single-element list for a plain env)."""
        if isinstance(self.env, ShardedEnvironment):
            return self.env.shard_snapshots()
        return [self.env.snapshot()]

    def shard_deltas(self, earlier: list[IOSnapshot]):
        """Per-shard deltas since :meth:`shard_snapshots`."""
        if isinstance(self.env, ShardedEnvironment):
            return self.env.shard_deltas(earlier)
        if len(earlier) != 1:
            raise ValueError(f"expected 1 shard snapshot, got {len(earlier)}")
        return [self.env.delta_since(earlier[0])]

    def shard_load(self) -> ShardLoad:
        """Lifetime per-shard buffer-pool load and the max/mean skew."""
        return shard_load(self.env)

    # -- failure domains / quarantine ----------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether at least one shard is quarantined (answers are partial)."""
        return bool(self._quarantined)

    def quarantined_shards(self) -> tuple[int, ...]:
        """Quarantined shard indices, ascending."""
        return tuple(sorted(self._quarantined))

    def shard_health(self) -> list[ShardHealth]:
        """Per-shard health, in shard order."""
        with self._health_lock:
            return [
                ShardHealth(
                    shard=shard,
                    quarantined=shard in self._quarantined,
                    reason=self._quarantined.get(shard),
                    failures=self._shard_failures.get(shard, 0),
                )
                for shard in range(self.shard_count)
            ]

    def quarantine_shard(self, shard: int, reason: str) -> None:
        """Mark one failure domain untrustworthy; reads skip it, writes that
        touch it fail fast.  Idempotent (the first reason wins)."""
        if not 0 <= shard < self.shard_count:
            raise StorageError(
                f"shard index {shard} out of range for {self.shard_count} shards"
            )
        with self._health_lock:
            self._shard_failures[shard] = self._shard_failures.get(shard, 0) + 1
            newly = shard not in self._quarantined
            self._quarantined.setdefault(shard, reason)
        # Decoded postings filled from a now-untrustworthy shard must not
        # outlive the quarantine decision.
        self.index.invalidate_list_cache_shard(shard)
        if newly:
            self.metrics.inc("shard.quarantined", shard=shard)
            self.events.emit("quarantine", shard=shard, reason=reason)

    def _quarantine_from_error(self, error: BaseException) -> bool:
        """Quarantine the failure domain a hard error is tagged with.

        Only errors that mark a shard's storage (or executor) untrustworthy
        count: escalated retry exhaustion, ENOSPC, checksum failures, failed
        commits and executor death.  Returns whether a shard was quarantined.
        """
        if not isinstance(error, HARD_FAULT_ERRORS + (ExecutorError,)):
            return False
        shard = shard_of_error(error)
        if shard is None or not 0 <= shard < self.shard_count:
            return False
        self.quarantine_shard(shard, f"{type(error).__name__}: {error}")
        return True

    def _check_writable(self, doc_id: "int | None" = None,
                        terms: "Iterable[str] | None" = None) -> "list | None":
        """Fail fast when a write would touch a quarantined shard.

        Raises :class:`~repro.errors.ShardQuarantinedError` *before* any state
        is mutated, so the refusal is atomic.  When ``terms`` is ``None`` and
        the document is known, its terms come from the forward index (score
        updates touch the short lists of every term the document contains).
        Returns the materialized ``terms`` list when one was passed, so
        callers can forward the consumed iterable.
        """
        materialized = list(terms) if terms is not None else None
        if not self._quarantined:
            return materialized
        touched: set[int] = set()
        if doc_id is not None:
            touched.add(shard_of_doc(doc_id, self.shard_count))
            if materialized is None and self.index.documents.contains(doc_id):
                materialized_terms = self.index.documents.get(doc_id).distinct_terms
                touched.update(self.shard_of_term(t) for t in materialized_terms)
        if materialized is not None:
            touched.update(self.shard_of_term(t) for t in materialized)
        hit = sorted(touched & set(self._quarantined))
        if hit:
            reasons = "; ".join(
                f"shard {shard}: {self._quarantined[shard]}" for shard in hit
            )
            error = ShardQuarantinedError(
                f"write touches quarantined shard(s) {hit} — {reasons}"
            )
            error.shard = hit[0]
            raise error
        return materialized

    def _guard_write(self, fn):
        """Run a mutating operation, quarantining tagged hard failures."""
        try:
            return fn()
        except ReproError as exc:
            self._quarantine_from_error(exc)
            raise

    def reopen_shard(self, shard: int) -> None:
        """Re-admit a quarantined shard from its checkpoint + WAL.

        Recovers the shard's environment to its last committed batch (see
        :meth:`ShardedEnvironment.reopen_shard`), revives its executor when
        one died, and lifts the quarantine.  Runs writer-exclusive, so no
        query or update window observes the swap mid-flight.
        """
        with self._write_ctx():
            if isinstance(self.env, ShardedEnvironment):
                self.env.reopen_shard(shard)
            else:
                raise StorageError(
                    "reopen_shard needs a sharded environment; recover the "
                    "whole environment instead"
                )
            if self._pool is not None:
                self._pool.revive(shard)
            # The recovered shard is a fresh environment object; re-route its
            # events into this router's log.
            self._attach_event_sinks()
            with self._health_lock:
                was_quarantined = self._quarantined.pop(shard, None) is not None
            # The recovered shard may have rolled back past the postings any
            # cached entry was decoded from.
            self.index.invalidate_list_cache_shard(shard)
            self.metrics.inc("shard.reopened", shard=shard)
            self.events.emit("reopen", shard=shard,
                             lifted_quarantine=was_quarantined)

    # -- delegated InvertedIndex API ----------------------------------------------

    @property
    def method_name(self) -> str:
        return self.index.method_name

    @property
    def documents(self) -> DocumentStore:
        return self.index.documents

    @property
    def update_stats(self) -> UpdateStats:
        return self.index.update_stats

    @property
    def finalized(self) -> bool:
        return self.index.finalized

    def add_document(self, doc_id: int, score: float,
                     terms: Iterable[str] | None = None) -> None:
        terms = self._check_writable(doc_id=doc_id, terms=terms)
        with self._write_ctx():
            self._guard_write(
                lambda: self.index.add_document(doc_id, score, terms=terms)
            )
        self.metrics.inc("write.ops", op="add_document")

    def finalize(self) -> None:
        with self._write_ctx():
            self._guard_write(self.index.finalize)

    def current_score(self, doc_id: int) -> float | None:
        with self._read_ctx():
            return self.index.current_score(doc_id)

    def current_scores(self, doc_ids: Iterable[int]) -> dict[int, float]:
        """Latest scores of several documents under one lock acquisition.

        The service drivers resolve every update window against current
        scores; doing it per document would pay one reader-lock round trip
        per lookup under the concurrent engine, so the bulk form exists for
        them.  Unknown or deleted documents are absent from the result.
        """
        with self._read_ctx():
            scores: dict[int, float] = {}
            for doc_id in doc_ids:
                score = self.index.current_score(doc_id)
                if score is not None:
                    scores[doc_id] = score
            return scores

    def document_count(self) -> int:
        with self._read_ctx():
            return self.index.document_count()

    def update_score(self, doc_id: int, new_score: float) -> None:
        self._check_writable(doc_id=doc_id)
        with self._write_ctx():
            self._guard_write(lambda: self.index.update_score(doc_id, new_score))
        self.metrics.inc("write.ops", op="update_score")

    def apply_batch(self, updates: Iterable[tuple[int, float]]) -> int:
        updates = list(updates)
        if self._quarantined:
            for doc_id, _score in updates:
                self._check_writable(doc_id=doc_id)
        started = time.perf_counter()
        with span("write.window", updates=len(updates)):
            if not self.parallel:
                with self._write_ctx():
                    applied = self._guard_write(
                        lambda: self.index.apply_batch(updates)
                    )
            else:
                applied = self._guard_write(
                    lambda: self._apply_batch_combined(updates)
                )
        self.metrics.observe(
            "update.window_ms", (time.perf_counter() - started) * 1000.0
        )
        self.metrics.add_many({
            "update.windows": 1.0,
            "update.count": float(applied),
        })
        self._obs_tick()
        return applied

    def insert_document(self, doc_id: int, terms: Iterable[str], score: float) -> None:
        terms = self._check_writable(doc_id=doc_id, terms=terms)
        with self._write_ctx():
            self._guard_write(
                lambda: self.index.insert_document(doc_id, terms, score)
            )
        self.metrics.inc("write.ops", op="insert_document")

    def delete_document(self, doc_id: int) -> None:
        self._check_writable(doc_id=doc_id)
        with self._write_ctx():
            self._guard_write(lambda: self.index.delete_document(doc_id))
        self.metrics.inc("write.ops", op="delete_document")

    def update_content(self, doc_id: int, new_terms: Iterable[str]) -> None:
        # A content update touches the document's *old* terms (looked up via
        # the forward index by the doc_id check) and its new ones.
        new_terms = self._check_writable(doc_id=doc_id, terms=new_terms)
        self._check_writable(doc_id=doc_id)
        with self._write_ctx():
            self._guard_write(lambda: self.index.update_content(doc_id, new_terms))
        self.metrics.inc("write.ops", op="update_content")

    def query(self, keywords: Iterable[str], k: int,
              conjunctive: bool = True) -> QueryResponse:
        """Top-k evaluation with graceful degradation under quarantine.

        Terms owned by quarantined shards are dropped before evaluation and
        reported via ``stats.degraded`` / ``stats.terms_skipped``; a hard
        shard-tagged fault *during* evaluation quarantines the shard and the
        query retries without it (reads never mutate index state, so the
        retry is safe).  A healthy router runs the exact pre-existing path.

        The wrapper here is pure observability: it times the evaluation into
        the ``query.*`` metrics and, when tracing is on, roots the query's
        span tree and offers it to the slow-query log.  The engine work all
        lives in :meth:`_query_impl`.
        """
        keywords = list(keywords)
        if not tracing_enabled():
            started = time.perf_counter()
            response = self._query_impl(keywords, k, conjunctive)
            self._record_query(response.stats,
                               (time.perf_counter() - started) * 1000.0)
            return response
        with span("query", keywords=tuple(keywords), k=k,
                  conjunctive=conjunctive) as root:
            started = time.perf_counter()
            response = self._query_impl(keywords, k, conjunctive)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._record_query(response.stats, elapsed_ms)
        if root is not None:
            SLOW_QUERIES.maybe_record(
                root, keywords, self._term_attribution(root, response.stats)
            )
        return response

    def _record_query(self, stats: QueryStats, elapsed_ms: float) -> None:
        """Fold one finished query into the registry (one lock trip each way)."""
        self.metrics.observe("query.latency_ms", elapsed_ms)
        values = {
            "query.count": 1.0,
            "query.pages_read": float(stats.pages_read),
            "query.pool_hits": float(stats.pool_hits),
            "query.postings_scanned": float(stats.postings_scanned),
        }
        if stats.degraded:
            values["query.degraded"] = 1.0
        self.metrics.add_many(values)
        self._obs_tick()

    @staticmethod
    def _term_attribution(root, stats: QueryStats) -> dict:
        """Per-term page/posting attribution for the slow-query log.

        The fan-out path tags its span with exact per-term scan stats; the
        serial path has only the aggregate, reported under ``"*"``.
        """
        nodes = [root]
        while nodes:
            node = nodes.pop()
            term_stats = node.tags.get("term_stats")
            if term_stats is not None:
                return term_stats
            nodes.extend(node.children)
        return {"*": {
            "pages_read": stats.pages_read,
            "postings_scanned": stats.postings_scanned,
        }}

    def _query_impl(self, keywords: list, k: int,
                    conjunctive: bool) -> QueryResponse:
        if self._lock is None and not self._quarantined:
            # Single-route fast lane (threads=1, healthy): no latch context to
            # enter, no degradation filtering, no retry-loop bookkeeping —
            # straight into the method's query path.  A hard shard-tagged
            # fault still quarantines on the way out, and the retry re-enters
            # through the full path (``_quarantined`` is now non-empty).
            try:
                return self.index.query(keywords, k=k, conjunctive=conjunctive)
            except ReproError as exc:
                if not self._quarantine_from_error(exc):
                    raise
                return self._query_impl(keywords, k, conjunctive)
        attempts = self.shard_count + 1
        while True:
            if self._quarantined:
                kept = [kw for kw in keywords
                        if self.shard_of_term(kw) not in self._quarantined]
            else:
                kept = keywords
            skipped = len(keywords) - len(kept)
            try:
                if not kept and skipped:
                    # Every queried term lives on a quarantined shard; an
                    # empty-but-flagged answer (the empty query still raises
                    # its usual QueryError below).
                    response = QueryResponse(results=(), stats=QueryStats())
                elif not self.parallel:
                    with self._read_ctx():
                        response = self.index.query(kept, k=k,
                                                    conjunctive=conjunctive)
                else:
                    response = self._query_fanout(kept, k, conjunctive)
            except ReproError as exc:
                attempts -= 1
                if attempts > 0 and self._quarantine_from_error(exc):
                    continue
                raise
            if skipped:
                response.stats.degraded = True
                response.stats.terms_skipped = skipped
            return response

    def long_list_size_bytes(self) -> int:
        with self._read_ctx():
            return self.index.long_list_size_bytes()

    def short_list_size_bytes(self) -> int:
        with self._read_ctx():
            return self.index.short_list_size_bytes()

    def drop_long_list_cache(self) -> None:
        # Evicting mutates every shard's pool; treat it as a write.
        with self._write_ctx():
            self.index.drop_long_list_cache()

    # -- parallel query fan-out ----------------------------------------------------

    def _query_fanout(self, keywords: Iterable[str], k: int,
                      conjunctive: bool) -> QueryResponse:
        """Scatter per-term scans to the shard executors, gather into the heap.

        The per-shard epoch snapshot taken at admission attributes the I/O the
        query's scans perform on each shard; under concurrent traffic the
        attribution is approximate (another query's blocks may land inside the
        window), which is the documented accounting contract of the parallel
        mode — contents and top-k results remain exact.
        """
        assert self._lock is not None and self._pool is not None
        with self._lock.read_locked():
            with span("query.plan"):
                terms = self.index.prepare_query(keywords, k)
                stats = QueryStats()
                per_term = [QueryStats() for _ in terms]
                epoch = self.shard_snapshots()
                plans = self.index._term_scan_plans(
                    terms, lambda index: per_term[index]
                )
                latches = getattr(self.env, "shard_latches", None)
                pumps = pump_plans(
                    self._pool,
                    [(self.shard_of_term(routing_term), plan, routing_term)
                     for routing_term, plan in plans],
                    latches=latches,
                    block_size=self.block_size,
                    initial_block=self.initial_block,
                    postings_of=self.index.stream_item_postings,
                )
            try:
                with span("query.merge"):
                    results = self.index._merge_term_streams(
                        [pump.stream() for pump in pumps], terms, k,
                        conjunctive, stats
                    )
            finally:
                for pump in pumps:
                    pump.close()
            for scan_stats in per_term:
                stats.postings_scanned += scan_stats.postings_scanned
                stats.chunks_scanned += scan_stats.chunks_scanned
            deltas = self.shard_deltas(epoch)
            stats.pages_read = sum(delta.page_reads for delta in deltas)
            stats.page_writes = sum(delta.page_writes for delta in deltas)
            stats.pool_hits = sum(delta.pool_hits for delta in deltas)
            stats.estimated_io_ms = sum(delta.cost_ms() for delta in deltas)
            self._record_fanout_shards(terms, per_term, deltas)
            return QueryResponse(results=tuple(results), stats=stats)

    def _record_fanout_shards(self, terms: list, per_term: "list[QueryStats]",
                              deltas: list) -> None:
        """Per-shard ``shard.*`` attribution for one fanned-out query.

        Only the fan-out path records per-shard metrics: it already paid for
        the epoch snapshot the page/pool attribution is derived from, whereas
        the serial fast lane would have to add shard snapshots to its hot
        path just to feed them.  Serial deployments still get per-shard
        list-cache and lifetime-I/O series.
        """
        per_shard: "dict[int, dict[str, float]]" = {}
        for term, scan_stats in zip(terms, per_term):
            bucket = per_shard.setdefault(self.shard_of_term(term), {
                "shard.postings_scanned": 0.0,
            })
            bucket["shard.postings_scanned"] += float(scan_stats.postings_scanned)
        for shard, delta in enumerate(deltas):
            if delta.page_reads or delta.pool_hits:
                bucket = per_shard.setdefault(shard, {})
                bucket["shard.pages_read"] = float(delta.page_reads)
                bucket["shard.pool_hits"] = float(delta.pool_hits)
        for shard, values in per_shard.items():
            self.metrics.add_many(values, shard=shard)
        if tracing_enabled():
            node = current_span()
            if node is not None:
                node.tags["term_stats"] = {
                    term: {
                        "shard": self.shard_of_term(term),
                        "postings_scanned": scan_stats.postings_scanned,
                        "chunks_scanned": scan_stats.chunks_scanned,
                    }
                    for term, scan_stats in zip(terms, per_term)
                }

    # -- combined update windows -----------------------------------------------------

    def _apply_batch_combined(self, updates: list) -> int:
        """Queue the window, let whoever holds the writer lock drain the queue.

        Windows that pile up while queries (or an earlier window) hold the
        lock are concatenated *in queue order* and applied as one batch —
        cross-client group application, the single-writer mailbox's analogue
        of group commit.  Each per-shard sub-batch of the combined window then
        executes concurrently on its shard executor via the store facades.

        Group-commit pacing, leader elected by queue position: the client
        whose window starts an empty queue becomes the *leader* and parks for
        the gather interval — its core time goes to whoever has work, and
        queries keep answering the whole time.  Clients whose windows arrive
        during that interval are *followers*: they park on their ticket
        without any deadline of their own (plus a generous safety timeout)
        because the leader is guaranteed to scoop their windows up.  One
        drain then applies everything queued as a single batch whose sorted
        per-shard sub-batches descend the trees once per leaf run instead of
        once per window — the same trade fsync group commit makes, paying at
        most one gather interval of latency per *drain* rather than per
        window.  ``combine_window_s=0`` disables the pause (every window
        drains immediately, still scooping whatever queued meanwhile).
        """
        assert self._lock is not None
        ticket = _UpdateTicket(updates)
        with self._pending_lock:
            self._pending.append(ticket)
            leader = len(self._pending) == 1
        if leader:
            if self.combine_window_s > 0.0 and ticket.event.wait(self.combine_window_s):
                return ticket.resolve()
        elif ticket.event.wait(max(1.0, 100.0 * self.combine_window_s)):
            return ticket.resolve()
        self._lock.acquire_write()
        try:
            if ticket.event.is_set():
                return ticket.resolve()
            with self._pending_lock:
                drained = []
                while self._pending:
                    drained.append(self._pending.popleft())
            self._drain_windows(drained)
        finally:
            self._lock.release_write()
        return ticket.resolve()

    def _drain_windows(self, drained: "list[_UpdateTicket]") -> None:
        combined: list = []
        for waiting in drained:
            combined.extend(waiting.updates)
        if len(drained) > 1:
            self.metrics.inc("update.windows_combined",
                             value=float(len(drained) - 1))
        try:
            with span("write.combine", windows=len(drained),
                      updates=len(combined)):
                applied = self.index.apply_batch(combined)
        except BaseException:
            # A bad update in one window must not fail its neighbours:
            # fall back to per-window application so each ticket gets its
            # own outcome, exactly as uncombined execution would.
            for waiting in drained:
                try:
                    waiting.applied = self.index.apply_batch(waiting.updates)
                except BaseException as exc:
                    waiting.error = exc
                waiting.event.set()
            return
        del applied  # == len(combined); per-ticket counts are the windows' own
        if len(drained) > 1:
            self.combined_windows += len(drained) - 1
        for waiting in drained:
            waiting.applied = len(waiting.updates)
            waiting.event.set()
