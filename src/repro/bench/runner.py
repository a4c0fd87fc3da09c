"""Experiment runner: build indexes, apply update workloads, run query workloads.

The runner reproduces the paper's measurement methodology (§5.2):

* the long inverted lists are evicted from the buffer pool before every query
  ("queries were run ... using a cold cache for the long inverted lists"),
  while the Score table and short lists stay cache-resident;
* updates are measured as the average over the whole update stream;
* query times are averaged over the query workload (the paper uses 50
  independent measurements).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.bench.metrics import MeteredEnvironment, OperationMetrics, record_shard_load
from repro.core.text_index import SVRTextIndex
from repro.workloads.queries import KeywordQuery, QueryWorkload, QueryWorkloadConfig
from repro.workloads.synthetic import (
    SyntheticCorpus,
    SyntheticCorpusConfig,
    generate_corpus,
)
from repro.workloads.updates import (
    ScoreUpdate,
    UpdateWorkload,
    UpdateWorkloadConfig,
    resolve_batch,
)


#: Adaptive batch-window controller (:meth:`ExperimentRunner.apply_updates_batched`):
#: window bounds, the windowed pool hit rate below which growth stops, and how
#: much worse than the previous window a window must be to halve the next.
_MIN_BATCH = 32
_MAX_BATCH = 8192
_SHRINK_HIT_RATE = 0.55
_DEGRADE_TOLERANCE = 1.25


@dataclass(frozen=True)
class MethodSetup:
    """An index method plus the constructor options it should be built with."""

    method: str
    options: dict[str, Any] = field(default_factory=dict)
    label: str | None = None

    @property
    def display_name(self) -> str:
        """Name shown in experiment tables."""
        return self.label if self.label is not None else self.method


@dataclass(frozen=True)
class BenchScale:
    """One knob controlling how big every experiment's workload is.

    The paper's corpus (100k documents of 2,000 terms) is far beyond what a
    pure-Python interpreter can index in benchmark time, so experiments default
    to the ``small`` preset and can be scaled up or down uniformly.
    """

    corpus: SyntheticCorpusConfig
    num_updates: int
    num_queries: int
    cache_pages: int
    mean_step: float = 100.0
    default_k: int = 10
    min_chunk_size: int = 10
    # The paper's long inverted lists span hundreds of 4 KiB BerkeleyDB pages;
    # a reduced corpus with 4 KiB pages would fit whole lists in one page and
    # hide the I/O differences the experiments are about, so the page size is
    # scaled down together with the corpus.
    page_size: int = 512
    # The paper tunes the chunk ratio to 6.12 and the threshold ratio to 11.24
    # for a 100,000-document corpus.  At the reduced corpus sizes below those
    # ratios leave too few chunks for early termination to engage, so each
    # scale carries the ratio appropriate for its document count (the same
    # workload-dependent tuning Table 2 is about).
    default_chunk_ratio: float = 2.2
    default_threshold_ratio: float = 4.0

    @classmethod
    def smoke(cls) -> "BenchScale":
        """Tiny scale used by the test suite (seconds, not minutes)."""
        return cls(
            corpus=SyntheticCorpusConfig(
                num_docs=150, terms_per_doc=30, num_distinct_terms=600, seed=7
            ),
            num_updates=200,
            num_queries=5,
            cache_pages=1024,
            min_chunk_size=5,
            default_chunk_ratio=2.0,
            default_threshold_ratio=3.0,
            page_size=512,
        )

    @classmethod
    def small(cls) -> "BenchScale":
        """Default benchmark scale (a few minutes for the full suite)."""
        return cls(
            corpus=SyntheticCorpusConfig(
                num_docs=1200, terms_per_doc=80, num_distinct_terms=8000, seed=7
            ),
            num_updates=3000,
            num_queries=12,
            cache_pages=4096,
            min_chunk_size=20,
            default_chunk_ratio=2.2,
            default_threshold_ratio=4.0,
            page_size=512,
        )

    @classmethod
    def medium(cls) -> "BenchScale":
        """Larger scale for overnight runs."""
        return cls(
            corpus=SyntheticCorpusConfig(
                num_docs=5000, terms_per_doc=150, num_distinct_terms=20000, seed=7
            ),
            num_updates=10000,
            num_queries=25,
            cache_pages=8192,
            min_chunk_size=50,
            default_chunk_ratio=3.0,
            default_threshold_ratio=6.0,
            page_size=1024,
        )

    def with_updates(self, num_updates: int) -> "BenchScale":
        """A copy with a different update count."""
        return replace(self, num_updates=num_updates)


@dataclass
class MethodRun:
    """Everything measured for one index method in one experiment cell."""

    setup: MethodSetup
    build_seconds: float
    long_list_bytes: int
    short_list_bytes: int
    update_metrics: OperationMetrics
    query_metrics: OperationMetrics


class ExperimentRunner:
    """Builds indexes over a shared corpus and measures update/query workloads.

    ``shards`` selects the storage engine: 1 (the default) is the paper's
    single-environment layout, larger counts partition the term space across
    that many environments (the total ``cache_pages`` budget is split across
    their buffer pools) and experiment metrics additionally record per-shard
    load skew.

    ``backend`` selects where pages live: ``"memory"`` (the default) keeps
    the seed engine; ``"file"`` builds every index on a
    :class:`~repro.storage.persistence.file_disk.FileBackedDisk` under
    ``storage_dir`` (a fresh temporary directory when omitted).  The two
    backends share the accounting code, so experiment I/O numbers are
    identical — the file backend exists so full-corpus runs fit in RAM and
    an index can be reopened after a crash.
    """

    def __init__(self, scale: BenchScale | None = None,
                 corpus: SyntheticCorpus | None = None, shards: int = 1,
                 threads: int = 1, backend: str = "memory",
                 storage_dir: str | None = None) -> None:
        if backend not in ("memory", "file"):
            raise ValueError(f"backend must be 'memory' or 'file', got {backend!r}")
        self.scale = scale if scale is not None else BenchScale.small()
        self.corpus = corpus if corpus is not None else generate_corpus(self.scale.corpus)
        self.shards = shards
        self.threads = threads
        self.backend = backend
        self.storage_dir = storage_dir
        self._owns_storage_dir = False
        self._build_counter = 0
        self._built_indexes: list[SVRTextIndex] = []

    def _next_index_path(self) -> str | None:
        """A fresh directory for the next file-backed index build."""
        if self.backend != "file":
            return None
        import os
        import shutil
        import tempfile
        import weakref

        if self.storage_dir is None:
            self.storage_dir = tempfile.mkdtemp(prefix="repro-bench-")
            self._owns_storage_dir = True
            # GC fallback: a runner abandoned without cleanup() must not
            # strand full index images under the temp root.
            weakref.finalize(self, shutil.rmtree, self.storage_dir,
                             ignore_errors=True)
        self._build_counter += 1
        return os.path.join(self.storage_dir, f"index-{self._build_counter:04d}")

    def cleanup(self) -> None:
        """Close every index this runner built and drop its own temp storage.

        File-backed sweeps build one durable index per method; this releases
        their page-file/WAL handles deterministically and removes the
        runner-created directory (a caller-supplied ``storage_dir`` is left
        alone).  Safe to call repeatedly; a no-op on the memory backend.
        """
        import shutil

        for index in self._built_indexes:
            index.close()
        self._built_indexes.clear()
        if self._owns_storage_dir and self.storage_dir is not None:
            shutil.rmtree(self.storage_dir, ignore_errors=True)
            self.storage_dir = None
            self._owns_storage_dir = False

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cleanup()

    # -- building --------------------------------------------------------------

    def build_index(self, setup: MethodSetup) -> tuple[SVRTextIndex, float]:
        """Build one index over the shared corpus; returns (index, build seconds)."""
        options = dict(setup.options)
        if setup.method in ("chunk", "chunk_termscore"):
            options.setdefault("min_chunk_size", self.scale.min_chunk_size)
        index = SVRTextIndex(
            method=setup.method, cache_pages=self.scale.cache_pages,
            page_size=self.scale.page_size, shards=self.shards,
            threads=self.threads, path=self._next_index_path(), **options
        )
        if self.backend == "file":
            self._built_indexes.append(index)
        start = time.perf_counter()
        for document in self.corpus.iter_documents():
            index.add_document_terms(document.doc_id, document.terms, document.score)
        index.finalize()
        build_seconds = time.perf_counter() - start
        return index, build_seconds

    # -- workloads --------------------------------------------------------------------

    def make_updates(self, num_updates: int | None = None, mean_step: float | None = None,
                     focus_set_fraction: float = 0.01, focus_update_fraction: float = 0.2,
                     focus_direction: str = "increase", seed: int = 11) -> list[ScoreUpdate]:
        """Generate a score-update stream over the shared corpus."""
        config = UpdateWorkloadConfig(
            num_updates=num_updates if num_updates is not None else self.scale.num_updates,
            mean_step=mean_step if mean_step is not None else self.scale.mean_step,
            focus_set_fraction=focus_set_fraction,
            focus_update_fraction=focus_update_fraction,
            focus_direction=focus_direction,
            seed=seed,
        )
        workload = UpdateWorkload(config, self.corpus.scores())
        return workload.generate_list()

    def make_queries(self, num_queries: int | None = None, k: int | None = None,
                     selectivity: str = "unselective", conjunctive: bool = True,
                     terms_per_query: int = 2, seed: int = 23) -> list[KeywordQuery]:
        """Generate a keyword-query workload over the shared corpus."""
        config = QueryWorkloadConfig(
            num_queries=num_queries if num_queries is not None else self.scale.num_queries,
            terms_per_query=terms_per_query,
            selectivity=selectivity,
            k=k if k is not None else self.scale.default_k,
            conjunctive=conjunctive,
            seed=seed,
        )
        pool_size = config.candidate_pool_size(self.scale.corpus.num_distinct_terms)
        frequent = self.corpus.frequent_terms(max(pool_size, config.terms_per_query))
        return QueryWorkload(
            config, frequent, vocabulary_size=self.scale.corpus.num_distinct_terms
        ).generate()

    # -- measurement ---------------------------------------------------------------------

    def apply_updates(self, index: SVRTextIndex, updates: Iterable[ScoreUpdate],
                      label: str = "updates") -> OperationMetrics:
        """Apply a score-update stream through the index, measuring each update."""
        metrics = OperationMetrics(label=label)
        meter = MeteredEnvironment(index.env)
        for update in updates:
            current = index.current_score(update.doc_id)
            if current is None:
                continue
            new_score = update.apply_to(current)
            with meter.measure(metrics):
                index.update_score(update.doc_id, new_score)
        return metrics

    def apply_updates_batched(self, index: SVRTextIndex,
                              updates: Iterable[ScoreUpdate],
                              batch_size: int = 256,
                              label: str = "batched-updates") -> OperationMetrics:
        """Apply a score-update stream in windows through ``apply_score_updates``.

        Each window is resolved to absolute scores against the index's current
        state and applied as one batch; the metrics record one operation *per
        update* (the measured wall time and I/O of a window are spread over
        its updates), so ``avg_wall_ms`` is directly comparable with
        :meth:`apply_updates`.

        ``batch_size`` is the first window; after that the window size
        hill-climbs on the *measured per-update wall time* (the historical
        ``adaptive_batch_window`` entries in ``BENCH_storage_micro.json``
        show the controller beating every fixed candidate window on the fig7
        batched storm): a window that was at least as cheap per update as the
        best seen so far doubles the next one (bulk passes amortize more
        descents per leaf run), a window ``_DEGRADE_TOLERANCE``× worse than
        the previous one halves it.  The windowed buffer-pool hit rate (the
        per-window form of ``BufferPool.hit_rate``) acts as a
        brake: growth stops while the pool thrashes (hit rate below
        ``_SHRINK_HIT_RATE``) *and* the cost curve is no longer improving, so
        a write burst never outruns what the cache absorbs.  The final window
        lands in ``metrics.extra["batch_window"]``.
        """
        from itertools import islice

        metrics = OperationMetrics(label=label)
        meter = MeteredEnvironment(index.env)
        stream = iter(updates)
        window = batch_size
        best_per_update: float | None = None
        previous_per_update: float | None = None
        while True:
            batch = list(islice(stream, window))
            if not batch:
                break
            touched = {update.doc_id for update in batch}
            current = index.current_scores(touched)
            resolved = resolve_batch(batch, current)
            if not resolved:
                continue
            batch_metrics = OperationMetrics(label=label)
            with meter.measure(batch_metrics):
                index.apply_score_updates(resolved)
            metrics.record_spread(batch_metrics, operations=len(resolved))
            if len(resolved) >= window // 2:
                per_update = batch_metrics.wall_ms / len(resolved)
                accesses = batch_metrics.pool_hits + batch_metrics.pages_read
                hit_rate = batch_metrics.pool_hits / accesses if accesses else 1.0
                if (previous_per_update is not None
                        and per_update > previous_per_update * _DEGRADE_TOLERANCE):
                    window = max(_MIN_BATCH, window // 2)
                elif (best_per_update is None or per_update <= best_per_update
                        or hit_rate >= _SHRINK_HIT_RATE):
                    window = min(_MAX_BATCH, window * 2)
                if best_per_update is None or per_update < best_per_update:
                    best_per_update = per_update
                previous_per_update = per_update
                # Publish the controller's live choice so dashboards (and the
                # sampler's windows) see the adaptation, not just the final
                # value in the bench row.
                index.router.metrics.set_gauge("update.batch_window",
                                               float(window))
        metrics.extra["batch_window"] = float(window)
        index.router.metrics.set_gauge("update.batch_window", float(window))
        return metrics

    def run_queries(self, index: SVRTextIndex, queries: Sequence[KeywordQuery],
                    cold_cache: bool = True, label: str = "queries",
                    warmup: bool = True) -> OperationMetrics:
        """Run a query workload, evicting long-list pages before each query.

        The paper's methodology keeps the Score table and short lists hot while
        the long lists are cold; the optional unmeasured warm-up query brings
        those small structures into the cache before measurement starts.
        """
        metrics = OperationMetrics(label=label)
        meter = MeteredEnvironment(index.env)
        if warmup:
            for query in queries:
                index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
        for query in queries:
            if cold_cache:
                index.drop_long_list_cache()
            with meter.measure(metrics):
                index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
        record_shard_load(metrics, index.env)
        return metrics

    def run_multiclient(self, index: SVRTextIndex,
                        config: "MultiClientConfig | None" = None,
                        num_queries: int | None = None,
                        num_updates: int | None = None):
        """Replay interleaved multi-client traffic against a built index.

        Deals the runner's query and update workloads across the configured
        clients and replays them round-robin (see
        :class:`repro.workloads.multiclient.MultiClientDriver`); returns the
        driver's :class:`MultiClientResult`, whose ``shard_load`` reports how
        evenly the traffic spread across the index's storage shards.
        """
        from repro.workloads.multiclient import MultiClientConfig, MultiClientDriver

        config = config if config is not None else MultiClientConfig()
        queries = self.make_queries(num_queries=num_queries)
        updates = self.make_updates(num_updates=num_updates)
        driver = MultiClientDriver(config, queries, updates)
        return driver.run(index)

    def run_service_load(self, index: SVRTextIndex,
                         config: "ServiceLoadConfig | None" = None,
                         num_queries: int | None = None,
                         num_updates: int | None = None):
        """Drive concurrent closed-loop clients against a built index.

        The clients replay the same per-client schedules
        :meth:`run_multiclient` would replay round-robin, but from one thread
        each (see :class:`repro.workloads.service.ServiceLoadDriver`); the
        returned result carries the p50/p95/p99 latency profile and aggregate
        throughput, ready to export with ``result.record_into(metrics)``.
        """
        from repro.workloads.service import ServiceLoadConfig, ServiceLoadDriver

        config = config if config is not None else ServiceLoadConfig()
        queries = self.make_queries(num_queries=num_queries)
        updates = self.make_updates(num_updates=num_updates)
        driver = ServiceLoadDriver(config, queries, updates)
        return driver.run(index)

    # -- one-stop measurement for a method --------------------------------------------------

    def measure_method(self, setup: MethodSetup, updates: Sequence[ScoreUpdate],
                       queries: Sequence[KeywordQuery], cold_cache: bool = True) -> MethodRun:
        """Build, update and query one method; the common experiment cell."""
        index, build_seconds = self.build_index(setup)
        update_metrics = self.apply_updates(index, updates)
        query_metrics = self.run_queries(index, queries, cold_cache=cold_cache)
        return MethodRun(
            setup=setup,
            build_seconds=build_seconds,
            long_list_bytes=index.long_list_size_bytes(),
            short_list_bytes=index.index.short_list_size_bytes(),
            update_metrics=update_metrics,
            query_metrics=query_metrics,
        )
