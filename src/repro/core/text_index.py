"""The SVR-aware text management component.

:class:`SVRTextIndex` is the "extender/cartridge/data blade" box of Figure 2
extended for SVR: it owns the analysis pipeline, the forward index, the term
dictionary and one of the inverted-list methods, and exposes document-level
operations (add, insert, delete, content update, score update) plus top-k
keyword search.  It works directly with raw text; everything below it works
with analysed terms.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import QueryError, StorageError
from repro.core.index_router import IndexRouter
from repro.core.indexes.base import InvertedIndex, QueryResponse
from repro.core.indexes.registry import create_index
from repro.storage.environment import StorageEnvironment
from repro.storage.heap_file import HeapFile
from repro.storage.kvstore import KVStore
from repro.storage.sharding import ShardedEnvironment, ShardedHeapFile, ShardedKVStore, ShardLoad
from repro.text.analyzer import Analyzer
from repro.text.dictionary import TermDictionary
from repro.text.documents import DocumentStore
from repro.text.termscore import TermScorer

#: Attribute types excluded from the durability blob: stores are restored from
#: the storage catalog, not pickled through the application state.
_STORE_TYPES = (KVStore, HeapFile, ShardedKVStore, ShardedHeapFile)


def _capture_index_state(index: InvertedIndex, long_lists: bool) -> dict[str, Any]:
    """The method object's picklable, non-storage attributes.

    Everything an index method keeps outside the storage engine — segment
    handle maps, chunk maps, thresholds, update statistics, the finalized
    flag — rides in the application blob and is restored with ``setattr``
    after the method is re-instantiated over the recovered stores.  The
    attributes named by ``long_list_state`` (the segment map) change only
    when a long list is written; ``long_lists=False`` leaves them out.
    """
    skip = ("env", "documents", "list_cache", "long_list_version")
    if not long_lists:
        skip += index.long_list_state
    return {
        key: value
        for key, value in vars(index).items()
        # ``list_cache`` is ephemeral by design: a recovered index starts
        # with a cold hot-term cache (its entries may predate the recovery
        # point).
        if key not in skip and not isinstance(value, _STORE_TYPES)
    }


class SVRTextIndex:
    """A text index over one text column, ranked by SVR (and optionally term) scores.

    Parameters
    ----------
    method:
        Name of the inverted-list method (see
        :func:`repro.core.indexes.registry.available_methods`).
    env:
        Storage environment; a private one is created when omitted.
    analyzer:
        Analysis pipeline; a lowercasing, stopword-free analyzer by default.
    cache_pages:
        Buffer-pool capacity used when a private environment is created.
    page_size:
        Page size (bytes) used when a private environment is created.  The
        benchmark harness shrinks it together with the corpus so that long
        inverted lists still span many pages, as they do at the paper's scale.
    shards:
        Number of term-space partitions when a private environment is created
        (ignored when ``env`` is passed).  ``1`` keeps the paper's
        single-environment engine; larger counts build a
        :class:`~repro.storage.sharding.ShardedEnvironment` whose total cache
        budget is still ``cache_pages``.
    threads:
        How many client threads may use this index at once.  ``1`` (the
        default) is the serial engine: no lock, byte-for-byte the paper's
        algorithms.  ``> 1`` makes every operation take one engine lock and
        combines batched update windows that arrive together (see
        :class:`~repro.core.index_router.IndexRouter`).  Every operation
        still runs on its caller's thread; no worker thread is started.
    path:
        Optional directory for a durable index: pages live in one file-backed
        environment (or one per shard) with a write-ahead log, and
        :meth:`commit`/:meth:`checkpoint`/:meth:`close` provide the durability
        boundaries.  Use :meth:`open` to recover an existing directory — the
        constructor refuses one that already holds an index.
    method_options:
        Extra keyword arguments forwarded to the index method's constructor
        (``chunk_ratio``, ``threshold_ratio``, ``term_weight``, ``fancy_size`` ...).
    """

    def __init__(self, method: str = "chunk",
                 env: "StorageEnvironment | ShardedEnvironment | None" = None,
                 analyzer: Analyzer | None = None, name: str = "svr",
                 cache_pages: int = 4096, page_size: int = 4096,
                 shards: int = 1, threads: int = 1, path: str | None = None,
                 **method_options: Any) -> None:
        if env is None:
            if path is not None:
                from repro.storage.persistence import is_environment_dir
                import os

                if os.path.isdir(path) and is_environment_dir(path):
                    raise StorageError(
                        f"{path!r} already holds a persistent index; "
                        "use SVRTextIndex.open() to recover it"
                    )
            if shards <= 1:
                env = StorageEnvironment(
                    cache_pages=cache_pages, page_size=page_size, path=path
                )
            else:
                env = ShardedEnvironment(
                    shard_count=shards, cache_pages=cache_pages,
                    page_size=page_size, path=path,
                )
        elif path is not None:
            raise StorageError("pass either env= or path=, not both")
        self.env = env
        self.analyzer = analyzer if analyzer is not None else Analyzer()
        self.documents = DocumentStore()
        self.dictionary = TermDictionary()
        self.term_scorer = TermScorer(self.documents, self.dictionary)
        self._method_options = dict(method_options)
        self._name = name
        self.index: InvertedIndex = create_index(
            method, self.env, self.documents, name=name, **method_options
        )
        self.router = IndexRouter(self.index, threads=threads)
        self._obs_server = self._maybe_serve_observability()
        #: Part versions (see :meth:`_part_versions`) of the last durable
        #: commit record; ``None`` makes the next record carry every part.
        self._durable_versions: "tuple[int, int, int] | None" = None

    # -- durability ---------------------------------------------------------------

    @classmethod
    def open(cls, path: str, cache_pages: int | None = None,
             threads: int = 1) -> "SVRTextIndex":
        """Recover a durable index to its last committed batch boundary.

        Replays each environment's write-ahead log onto its paged file,
        restores the stores from the storage catalog and the text-layer state
        (documents, dictionary, analyzer, method bookkeeping) from the
        application blob, folded from the checkpoint and every commit record
        up to that batch.  Contents and top-k answers equal exactly the state
        at the last :meth:`commit` (or :meth:`checkpoint`/:meth:`close`) —
        uncommitted work is gone.
        """
        from repro.storage.persistence import open_any_environment

        env = open_any_environment(path, cache_pages=cache_pages)
        blob = env.recovered_app_state
        if not isinstance(blob, dict) or blob.get("kind") != "svr-text-index":
            raise StorageError(
                f"{path!r} holds no SVRTextIndex application state; "
                "was the environment committed through the index facade?"
            )
        self = cls.__new__(cls)
        self.env = env
        self.analyzer = blob["analyzer"]
        self.documents = blob["documents"]
        self.dictionary = blob["dictionary"]
        self.term_scorer = TermScorer(self.documents, self.dictionary)
        self._method_options = dict(blob["options"])
        self._name = blob["name"]
        self.index = create_index(
            blob["method"], env, self.documents, name=blob["name"],
            **blob["options"]
        )
        for key, value in blob["index_state"].items():
            setattr(self.index, key, value)
        self.router = IndexRouter(self.index, threads=threads)
        self._obs_server = self._maybe_serve_observability()
        self._durable_versions = self._part_versions()
        return self

    @property
    def durable(self) -> bool:
        """Whether the index persists to files."""
        return getattr(self.env, "durable", False)

    def _part_versions(self) -> "tuple[int, int, int]":
        """Version counters of the documents, the dictionary and the long lists."""
        return (self.documents.version, self.dictionary.version,
                self.index.long_list_version)

    def _app_delta(self) -> "tuple[dict[str, Any], tuple[int, int, int]]":
        """The application-blob parts that changed since the last durable
        commit record, and the part versions they bring it to.

        The method's small bookkeeping (``index_state``) rides every record.
        The documents and the dictionary ride only when they changed, the
        options and analyzer with either of them, and the long-list entries
        of ``index_state`` only when a long list was written.  Nothing here
        is pickled or hashed: the parts are compared by version counter.
        """
        versions = self._part_versions()
        documents, dictionary, long_lists = (
            now != then for now, then in
            zip(versions, self._durable_versions or (None, None, None)))
        blob = {
            "kind": "svr-text-index",
            "version": 1,
            "method": self.index.method_name,
            "options": self._method_options,
            "name": self._name,
            "analyzer": self.analyzer,
            "documents": self.documents,
            "dictionary": self.dictionary,
            "index_state": _capture_index_state(self.index, long_lists=long_lists),
        }
        for part, changed in (("options", documents or dictionary),
                              ("analyzer", documents or dictionary),
                              ("documents", documents), ("dictionary", dictionary)):
            if not changed:
                del blob[part]
        return blob, versions

    def _make_durable(self, action) -> int:
        """Run the environment's commit or checkpoint with the changed parts.

        The durable versions advance only once the environment returns, so a
        commit that rolls back (``CommitError``) leaves them behind and the
        retry carries the same parts.  On a memory index no blob is built.
        """
        with self.router.exclusive():
            app, versions = self._app_delta() if self.durable else (None, None)
            skip = self.router.quarantined_shards()
            if skip and isinstance(self.env, ShardedEnvironment):
                batch = action(app_state=app, skip=skip)
            else:
                batch = action(app_state=app)
            if versions is not None:
                self._durable_versions = versions
            return batch

    def commit(self) -> int:
        """Group-commit everything since the last durability boundary.

        On a memory-backed index this only flushes the buffer pool (charged
        identically on every backend, keeping I/O fingerprints comparable).
        Quarantined shards are skipped (a *degraded* commit): they fall
        behind the commit point and catch up after :meth:`reopen_shard`.
        Returns the committed batch id.
        """
        return self._make_durable(self.env.commit)

    def checkpoint(self) -> int:
        """Commit, then fold the write-ahead log into the paged file(s).

        Quarantined shards are skipped, exactly as in :meth:`commit`.
        """
        return self._make_durable(self.env.checkpoint)

    def close(self) -> None:
        """Checkpoint (when durable) and release all file handles, idempotently.

        Also stops the router's sampler daemon, if one runs.
        Quarantined shards are crash-closed rather than checkpointed — their
        in-memory state is untrustworthy, and their durable state must stay
        at the last commit they participated in.
        """
        self._stop_observability_server()
        self.router.shutdown()
        if (self.durable and not self.env.closed
                and isinstance(self.env, ShardedEnvironment)):
            for shard in self.router.quarantined_shards():
                self.env.shards[shard].crash()
        app = self._app_delta()[0] if self.durable and not self.env.closed else None
        self.env.close(app_state=app)

    def crash(self) -> None:
        """Simulate a crash: drop file handles, committing nothing.

        Everything since the last :meth:`commit` is lost; :meth:`open`
        recovers the committed prefix.
        """
        self._stop_observability_server()
        self.router.shutdown()
        self.env.crash()

    def __enter__(self) -> "SVRTextIndex":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.durable:
            self.crash()
        else:
            self.close()

    # -- convenience properties ---------------------------------------------------

    @property
    def method(self) -> str:
        """Name of the underlying index method."""
        return self.router.method_name

    @property
    def shard_count(self) -> int:
        """Number of storage shards backing the term space (1 = classic engine)."""
        return self.router.shard_count

    @property
    def threads(self) -> int:
        """Client threads this index was built for (1 = serial engine, no lock)."""
        return self.router.threads

    def shard_load(self) -> ShardLoad:
        """Lifetime per-shard buffer-pool load and skew (see :class:`ShardLoad`)."""
        return self.router.shard_load()

    # -- fault injection & failure domains ------------------------------------------

    def inject_faults(self, plan: Any) -> None:
        """Attach a :class:`~repro.storage.faults.FaultPlan` to the storage."""
        self.env.inject_faults(plan)

    def clear_faults(self) -> None:
        """Detach all fault injectors."""
        self.env.clear_faults()

    def fault_stats(self) -> Any:
        """Aggregated injector statistics (``None`` when nothing is attached)."""
        return self.env.fault_stats()

    def scrub(self) -> Any:
        """Checksum-verify data at rest (see ``StorageEnvironment.scrub``)."""
        return self.env.scrub()

    # -- observability ---------------------------------------------------------------

    def _maybe_serve_observability(self):
        """Start the live monitoring endpoint when ``REPRO_OBS_HTTP_PORT`` asks.

        Returns the server handle (stopped by :meth:`close`/:meth:`crash`)
        or ``None`` — the default — when the variable is unset.
        """
        from repro.obs.http import http_port_from_environ

        port = http_port_from_environ()
        if port is None:
            return None
        from repro.obs.http import serve_observability

        return serve_observability(self, port=port)

    def _stop_observability_server(self) -> None:
        if getattr(self, "_obs_server", None) is not None:
            self._obs_server.close()
            self._obs_server = None

    def serve_observability(self, port: int = 0,
                            host: str = "127.0.0.1"):
        """Start (and return) a live monitoring endpoint for this engine.

        See :mod:`repro.obs.http` for the routes.  The returned handle's
        ``close()`` stops the listener; an endpoint started here is also
        stopped by :meth:`close`/:meth:`crash` if still attached.
        """
        from repro.obs.http import serve_observability

        self._stop_observability_server()
        self._obs_server = serve_observability(self, port=port, host=host)
        return self._obs_server

    def observability(self) -> dict:
        """One structured snapshot of the whole engine's observable state.

        Metrics registry, per-shard lifetime I/O, list-cache occupancy, WAL
        and fault counters, shard health, recent events and slow queries —
        everything the :mod:`repro.obs.dump` CLI renders.  Reading it
        performs no storage accesses (counter reads only).
        """
        from repro.obs.snapshot import observability_snapshot

        return observability_snapshot(self)

    @property
    def degraded(self) -> bool:
        """Whether quarantined shards are making answers partial."""
        return self.router.degraded

    def shard_health(self) -> list:
        """Per-shard quarantine status (see :class:`~repro.core.index_router.ShardHealth`)."""
        return self.router.shard_health()

    def quarantined_shards(self) -> tuple[int, ...]:
        """Indices of quarantined shards, ascending."""
        return self.router.quarantined_shards()

    def reopen_shard(self, shard: int) -> None:
        """Recover a quarantined shard from checkpoint + WAL and re-admit it."""
        self.router.reopen_shard(shard)

    @property
    def finalized(self) -> bool:
        """Whether the bulk build has been finalized."""
        return self.router.finalized

    def document_count(self) -> int:
        """Number of live documents."""
        return self.router.document_count()

    def current_score(self, doc_id: int) -> float | None:
        """Latest SVR score of a document (``None`` when unknown or deleted)."""
        return self.router.current_score(doc_id)

    def current_scores(self, doc_ids: "Iterable[int]") -> dict[int, float]:
        """Latest scores for several documents (one engine-lock round trip
        when ``threads > 1``); unknown and deleted documents are omitted."""
        return self.router.current_scores(doc_ids)

    # -- build ----------------------------------------------------------------------

    def add_document(self, doc_id: int, text: str, score: float) -> None:
        """Stage a document (raw text) with its initial SVR score."""
        self.add_document_terms(doc_id, self.analyzer.analyze(text), score)

    def add_document_terms(self, doc_id: int, terms: Iterable[str], score: float) -> None:
        """Stage a pre-analysed document (term sequence) with its initial SVR score.

        The synthetic workloads generate term sequences directly; this entry
        point skips the tokenisation pass they do not need.
        """
        with self.router.exclusive():
            self.documents.add_terms(doc_id, terms)
            self.dictionary.add_document_terms(self.documents.get(doc_id).term_frequencies)
            self.router.add_document(doc_id, score)

    def finalize(self) -> None:
        """Build the long inverted lists; required before updates and queries."""
        self.router.finalize()

    # -- updates ----------------------------------------------------------------------

    def update_score(self, doc_id: int, new_score: float) -> None:
        """Record a new SVR score for a document."""
        self.router.update_score(doc_id, new_score)

    def apply_score_updates(self, updates: "Iterable[tuple[int, float]]") -> int:
        """Apply a window of ``(doc_id, new_score)`` updates as one batch.

        Semantically identical to calling :meth:`update_score` per pair in
        order, but the underlying index groups the write work per term and
        applies it through bulk B+-tree passes (see
        :meth:`repro.core.indexes.base.InvertedIndex.apply_batch`).  Returns
        the number of updates applied.
        """
        return self.router.apply_batch(updates)

    def insert_document(self, doc_id: int, text: str, score: float) -> None:
        """Insert a new document after the index has been built."""
        self.insert_document_terms(doc_id, self.analyzer.analyze(text), score)

    def insert_document_terms(self, doc_id: int, terms: Iterable[str], score: float) -> None:
        """Insert a pre-analysed document after the index has been built."""
        with self.router.exclusive():
            self.router.insert_document(doc_id, terms, score)
            self.dictionary.add_document_terms(self.documents.get(doc_id).term_frequencies)

    def delete_document(self, doc_id: int) -> None:
        """Delete a document (it stops appearing in query results immediately)."""
        with self.router.exclusive():
            old_terms = self.documents.get(doc_id).distinct_terms
            self.router.delete_document(doc_id)
            self.dictionary.remove_document_terms(old_terms)

    def update_content(self, doc_id: int, new_text: str) -> None:
        """Replace a document's text content."""
        new_terms = self.analyzer.analyze(new_text)
        with self.router.exclusive():
            old_terms = self.documents.get(doc_id).distinct_terms
            self.router.update_content(doc_id, new_terms)
            self.dictionary.update_document_terms(
                old_terms, self.documents.get(doc_id).term_frequencies)

    # -- queries -----------------------------------------------------------------------

    def search(self, query: str | Iterable[str], k: int = 10,
               conjunctive: bool = True) -> QueryResponse:
        """Top-k keyword search ranked by the latest scores.

        ``query`` may be a raw string (analysed with the same pipeline as the
        documents) or an iterable of keywords.
        """
        if isinstance(query, str):
            keywords = self.analyzer.normalize_query_terms([query])
        else:
            keywords = self.analyzer.normalize_query_terms(query)
        if not keywords:
            raise QueryError("the query contains no indexable keywords")
        return self.router.query(keywords, k=k, conjunctive=conjunctive)

    def explain(self, query: str | Iterable[str], k: int = 10,
                conjunctive: bool = True, analyze: bool = False) -> dict:
        """EXPLAIN (or EXPLAIN ANALYZE) a query without — or with — running it.

        Mirrors :meth:`search` exactly on the input side (same analyzer
        normalization, same validation errors).  ``analyze=False`` describes
        the plan from planner state and the accounting-free peek path only —
        zero accounted storage accesses.  ``analyze=True`` executes the query
        through the identical :meth:`IndexRouter.query` path and grafts the
        actuals (scanned vs estimated postings, skip decisions with their
        heap-threshold floors, per-shard latency and I/O splits) onto the
        plan; the embedded results are bit-identical to :meth:`search`.
        See :mod:`repro.obs.explain`.
        """
        if isinstance(query, str):
            keywords = self.analyzer.normalize_query_terms([query])
        else:
            keywords = self.analyzer.normalize_query_terms(query)
        if not keywords:
            raise QueryError("the query contains no indexable keywords")
        from repro.obs.explain import explain_query

        return explain_query(self, keywords, k=k, conjunctive=conjunctive,
                             analyze=analyze)

    def tfidf_score(self, query: str | Iterable[str], doc_id: int) -> float:
        """Traditional TF-IDF score of a document for a query (the paper's baseline)."""
        if isinstance(query, str):
            keywords = self.analyzer.normalize_query_terms([query])
        else:
            keywords = self.analyzer.normalize_query_terms(query)
        return self.term_scorer.query_tfidf(keywords, doc_id)

    # -- measurement hooks ------------------------------------------------------------------

    def long_list_size_bytes(self) -> int:
        """Serialized size of the long inverted lists (Table 1)."""
        return self.router.long_list_size_bytes()

    def drop_long_list_cache(self) -> None:
        """Evict long-list pages to start the next query from a cold cache (§5.2)."""
        self.router.drop_long_list_cache()
