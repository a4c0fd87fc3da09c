"""The unified front door over a (possibly term-partitioned) index.

:class:`IndexRouter` hides the sharding layer behind the exact
:class:`~repro.core.indexes.base.InvertedIndex` operational API: callers
insert/delete/update documents, apply batched score updates and run top-k
queries without knowing how many :class:`StorageEnvironment` instances back
the term space.  On top of the delegated API it exposes the shard-level
observability the experiments need — the term→shard resolver, per-shard I/O
snapshots/deltas, and the lifetime load/skew report.

There is one execution pipeline: every operation runs on its caller's
thread.  With ``threads=1`` (the default) the router adds no storage
behaviour and no lock of its own — every keyed operation is routed inside
the store facades (:mod:`repro.storage.sharding`), so a router over a
single-shard (or plain) environment is fingerprint-identical to the classic
engine.  ``threads > 1`` declares that several client threads share the
index (see ARCHITECTURE.md "Concurrent execution"):

* every query, write and maintenance step runs under one engine lock;
* batched update windows that arrive together are *combined*: the client
  whose window starts an empty queue leads, pauses :data:`COMBINE_GATHER_S`
  so other clients can enqueue theirs, then applies everything queued as
  one batch.  ``apply_batch`` is defined to equal sequential application, so
  concatenating windows in ticket order preserves contents and top-k.
"""

from __future__ import annotations

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
    ReproError,
    ShardQuarantinedError,
    StorageError,
    shard_of_error,
)
from repro.obs.events import EventLog, event_log_capacity_from_environ
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOTracker
from repro.obs.timeseries import (
    MetricsSampler,
    SamplerDaemon,
    sample_interval_from_environ,
)
from repro.obs.trace import SLOW_QUERIES, span, tracing_enabled
from repro.storage.environment import IOSnapshot, StorageEnvironment
from repro.storage.sharding import (
    ShardedEnvironment,
    ShardLoad,
    shard_load,
    shard_of_doc,
    shard_of_term,
)
from repro.text.documents import DocumentStore


#: Group-commit gather interval: how long the leading update window of a
#: drain parks so concurrent clients can enqueue theirs.  Paid once per
#: drain, not per window.  Measured on the ``service_hot`` benchmark: without
#: the pause ``update_ops_s`` rises 30 % but ``query_ops_s`` falls 17 %,
#: because writers then take the engine lock back to back.
COMBINE_GATHER_S = 0.001

#: Safety bound on a follower's wait for the leader to apply its window.
_FOLLOWER_WAIT_S = 1.0


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
        ``1`` (the default): one client thread, no lock — the serial engine.
        ``> 1``: concurrent client threads share this index; every operation
        takes the engine lock and update windows are write-combined.  No
        worker thread is ever started.
    """

    def __init__(self, index: InvertedIndex, threads: int = 1) -> None:
        self.index = index
        self.env = index.env
        self.threads = max(1, int(threads))
        #: The engine lock (a no-op context on the serial engine).  Re-entrant
        #: so a maintenance step holding it may call back into the router.
        self._lock = threading.RLock() if self.threads > 1 else nullcontext()
        self._pending: "deque[_UpdateTicket]" = deque()
        self._pending_lock = threading.Lock()
        self.combined_windows = 0
        #: Quarantined failure domains: shard index -> reason.  Guarded by
        #: ``_health_lock``; reads of the bare dict are snapshot-consistent
        #: enough for the fast-path emptiness checks.
        self._quarantined: dict[int, str] = {}
        self._shard_failures: dict[int, int] = {}
        self._health_lock = threading.Lock()
        #: Engine-wide metrics registry: the router and the hot-term list
        #: cache both feed it (see :mod:`repro.obs`).
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

    @classmethod
    def build(cls, method: str, shard_count: int = 1,
              documents: DocumentStore | None = None, name: str = "svr",
              cache_pages: int = 4096, page_size: int = 4096,
              env: "StorageEnvironment | ShardedEnvironment | None" = None,
              threads: int = 1, **options: Any) -> "IndexRouter":
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
                   threads=threads)

    # -- lifecycle ------------------------------------------------------------------

    def exclusive(self):
        """The engine lock, for maintenance work (commit, checkpoint).

        The storage facades flush buffer pools during these operations, so
        they must not overlap queries or update windows.  A no-op context on
        the serial engine.
        """
        return self._lock

    def shutdown(self) -> None:
        """Stop the sampler daemon, if one runs (idempotent)."""
        if self._sampler_daemon is not None:
            self._sampler_daemon.stop()
            self._sampler_daemon = None

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

        Only errors that mark a shard's storage untrustworthy count:
        escalated retry exhaustion, ENOSPC, checksum failures and failed
        commits.  Returns whether a shard was quarantined.
        """
        if not isinstance(error, HARD_FAULT_ERRORS):
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
        :meth:`ShardedEnvironment.reopen_shard`) and lifts the quarantine.
        Runs under the engine lock, so no query or update window observes
        the swap mid-flight.
        """
        with self._lock:
            if isinstance(self.env, ShardedEnvironment):
                self.env.reopen_shard(shard)
            else:
                raise StorageError(
                    "reopen_shard needs a sharded environment; recover the "
                    "whole environment instead"
                )
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
        with self._lock:
            self._guard_write(
                lambda: self.index.add_document(doc_id, score, terms=terms)
            )
        self.metrics.inc("write.ops", op="add_document")

    def finalize(self) -> None:
        with self._lock:
            self._guard_write(self.index.finalize)

    def current_score(self, doc_id: int) -> float | None:
        with self._lock:
            return self.index.current_score(doc_id)

    def current_scores(self, doc_ids: Iterable[int]) -> dict[int, float]:
        """Latest scores of several documents under one lock acquisition.

        The service drivers resolve every update window against current
        scores; doing it per document would pay one engine-lock round trip
        per lookup, so the bulk form exists for
        them.  Unknown or deleted documents are absent from the result.
        """
        with self._lock:
            scores: dict[int, float] = {}
            for doc_id in doc_ids:
                score = self.index.current_score(doc_id)
                if score is not None:
                    scores[doc_id] = score
            return scores

    def document_count(self) -> int:
        with self._lock:
            return self.index.document_count()

    def update_score(self, doc_id: int, new_score: float) -> None:
        self._check_writable(doc_id=doc_id)
        with self._lock:
            self._guard_write(lambda: self.index.update_score(doc_id, new_score))
        self.metrics.inc("write.ops", op="update_score")

    def apply_batch(self, updates: Iterable[tuple[int, float]]) -> int:
        updates = list(updates)
        if self._quarantined:
            for doc_id, _score in updates:
                self._check_writable(doc_id=doc_id)
        started = time.perf_counter()
        with span("write.window", updates=len(updates)):
            if self.threads == 1:
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
        with self._lock:
            self._guard_write(
                lambda: self.index.insert_document(doc_id, terms, score)
            )
        self.metrics.inc("write.ops", op="insert_document")

    def delete_document(self, doc_id: int) -> None:
        self._check_writable(doc_id=doc_id)
        with self._lock:
            self._guard_write(lambda: self.index.delete_document(doc_id))
        self.metrics.inc("write.ops", op="delete_document")

    def update_content(self, doc_id: int, new_terms: Iterable[str]) -> None:
        # A content update touches the document's *old* terms (looked up via
        # the forward index by the doc_id check) and its new ones.
        new_terms = self._check_writable(doc_id=doc_id, terms=new_terms)
        self._check_writable(doc_id=doc_id)
        with self._lock:
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
            SLOW_QUERIES.maybe_record(root, keywords, {"*": {
                "pages_read": response.stats.pages_read,
                "postings_scanned": response.stats.postings_scanned,
            }})
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

    def _query_impl(self, keywords: list, k: int,
                    conjunctive: bool) -> QueryResponse:
        attempts = self.shard_count + 1
        while True:
            kept = keywords
            if self._quarantined:
                kept = [kw for kw in keywords
                        if self.shard_of_term(kw) not in self._quarantined]
            skipped = len(keywords) - len(kept)
            try:
                if not kept and skipped:
                    # Every queried term lives on a quarantined shard; an
                    # empty-but-flagged answer (the empty query still raises
                    # its usual QueryError below).
                    response = QueryResponse(results=(), stats=QueryStats())
                else:
                    with self._lock:
                        response = self.index.query(kept, k=k,
                                                    conjunctive=conjunctive)
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
        with self._lock:
            return self.index.long_list_size_bytes()

    def short_list_size_bytes(self) -> int:
        with self._lock:
            return self.index.short_list_size_bytes()

    def drop_long_list_cache(self) -> None:
        # Evicting mutates every shard's pool; treat it as a write.
        with self._lock:
            self.index.drop_long_list_cache()

    # -- combined update windows -----------------------------------------------------

    def _apply_batch_combined(self, updates: list) -> int:
        """Queue the window; whoever takes the engine lock drains the queue.

        Leader elected by queue position: the client whose window starts an
        empty queue parks for :data:`COMBINE_GATHER_S` while queries keep
        running, then takes the lock and applies every queued window as one
        batch whose sorted per-shard sub-batches descend the trees once per
        leaf run instead of once per window — the trade fsync group commit
        makes.  Clients that enqueue during the pause are followers: they
        wait on their ticket (with a safety timeout, after which they drain
        the queue themselves).
        """
        ticket = _UpdateTicket(updates)
        with self._pending_lock:
            self._pending.append(ticket)
            leader = len(self._pending) == 1
        if ticket.event.wait(COMBINE_GATHER_S if leader else _FOLLOWER_WAIT_S):
            return ticket.resolve()
        with self._lock:
            if not ticket.event.is_set():
                with self._pending_lock:
                    drained = list(self._pending)
                    self._pending.clear()
                self._drain_windows(drained)
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
