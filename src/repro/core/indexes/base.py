"""Common interface and plumbing for the inverted-list index family.

Every index method shares the same operational contract (§4.1):

* **bulk build** — documents are staged with their initial SVR scores and
  :meth:`InvertedIndex.finalize` constructs the immutable long inverted lists;
* **score updates** — :meth:`InvertedIndex.update_score` must keep queries
  correct with respect to the *latest* scores;
* **top-k queries** — :meth:`InvertedIndex.query` evaluates conjunctive or
  disjunctive keyword queries and returns the top-k documents by current score;
* **incremental content changes** — document insertion, deletion and content
  update (Appendix A).

The base class owns the structures every method shares: the Score table
(document id -> current score, kept in a B+-tree exactly like the paper's
Score table), the deleted-document flags, and the forward-index access needed
by the update algorithms (``Content(id)`` in Algorithm 1).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import (
    DocumentNotFoundError,
    InvertedIndexError,
    QueryError,
    StorageError,
)
from repro.core.list_cache import InvertedListCache, list_cache_pages_from_environ
from repro.core.result_heap import QueryResult
from repro.obs.trace import span
from repro.storage.environment import StorageEnvironment
from repro.storage.sharding import ShardedEnvironment, ShardedKVStore
from repro.text.documents import Document, DocumentStore

#: The largest doc id: the short-list, fancy and clustered-list keys store a
#: doc id as an unsigned 32-bit field.
MAX_DOC_ID = 0xFFFFFFFF


@dataclass
class QueryStats:
    """Work counters collected while evaluating a single query.

    ``pages_read`` / ``pool_hits`` are filled in from the storage environment
    by :meth:`InvertedIndex.query`; the remaining counters are maintained by
    the per-method query algorithms.
    """

    postings_scanned: int = 0
    candidates: int = 0
    score_lookups: int = 0
    heap_offers: int = 0
    chunks_scanned: int = 0
    #: Always 0: the sequential scan skips no blocks.  The field stays because
    #: the benchmark tracer reads it (``posting.blocks_skipped_per_query``).
    blocks_skipped: int = 0
    stopped_early: bool = False
    pages_read: int = 0
    page_writes: int = 0
    pool_hits: int = 0
    estimated_io_ms: float = 0.0
    #: Partial-failure reporting (router quarantine): ``degraded`` marks a
    #: result computed without one or more quarantined shards, and
    #: ``terms_skipped`` counts the query terms whose lists were unreachable.
    degraded: bool = False
    terms_skipped: int = 0


@dataclass(frozen=True)
class QueryResponse:
    """Results plus the statistics of the query evaluation that produced them."""

    results: tuple[QueryResult, ...]
    stats: QueryStats

    def doc_ids(self) -> list[int]:
        """Result document ids, best first."""
        return [result.doc_id for result in self.results]


@dataclass
class UpdateStats:
    """Work counters accumulated across score updates and document changes."""

    score_updates: int = 0
    short_list_postings_written: int = 0
    short_list_updates: int = 0
    long_list_postings_written: int = 0
    documents_inserted: int = 0
    documents_deleted: int = 0
    content_updates: int = 0


@dataclass
class _StagedDocument:
    """A document waiting for :meth:`InvertedIndex.finalize`."""

    doc_id: int
    score: float
    term_frequencies: Mapping[str, int] = field(default_factory=dict)


class InvertedIndex(abc.ABC):
    """Abstract base class of all index methods.

    Parameters
    ----------
    env:
        Storage environment holding the Score table, short lists and long
        lists.  A plain :class:`StorageEnvironment` gives the paper's
        single-pool layout; a :class:`ShardedEnvironment` partitions the term
        space, in which case every per-term store routes its keys through the
        environment's shard resolver (and the degenerate shard count 1 is
        fingerprint-identical to the plain layout).
    documents:
        Forward index.  Documents must be added to it before (or while) they
        are staged into the index; the update algorithms read ``Content(id)``
        from it.
    name:
        Index name, used to derive store names inside the environment.
    list_cache_pages:
        Byte budget of the hot-term decoded-postings cache, expressed in
        pages (see :mod:`repro.core.list_cache`).  ``None`` resolves
        ``REPRO_LIST_CACHE_PAGES``; ``0`` disables the cache.  The router's
        build path carves this out of ``cache_pages`` so total memory stays
        comparable across configurations.
    """

    #: Registry name of the method; subclasses override.
    method_name = "abstract"
    #: Whether long-list postings carry a per-term score.
    stores_term_scores = False
    #: Attributes that change only when a long list is written, which bumps
    #: ``long_list_version``: a durable index commits them only then.
    long_list_state: tuple[str, ...] = ()
    long_list_version = 0

    def __init__(self, env: "StorageEnvironment | ShardedEnvironment",
                 documents: DocumentStore, name: str = "svr",
                 list_cache_pages: "int | None" = None) -> None:
        self.env = env
        self.documents = documents
        self.name = name
        #: The environment's page size: long lists are written one block per
        #: page, and the list cache's budget is counted in pages.
        self.page_size = getattr(env, "page_size", None) or env.disk.page_size
        self.list_cache = self._make_list_cache(list_cache_pages)
        # doc_id -> score (float64); doc_id -> deleted flag (no value bytes).
        self.score_table = self._create_kvstore(f"{name}.score", key_shard="doc",
                                                key_codec="i", value_codec="f64")
        self.deleted_table = self._create_kvstore(f"{name}.deleted", key_shard="doc",
                                                  key_codec="i", value_codec="true")
        self.update_stats = UpdateStats()
        self._staged: dict[int, _StagedDocument] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Store creation (shard-aware)
    # ------------------------------------------------------------------

    def _create_kvstore(self, name: str, key_shard: str, key_codec: str,
                        value_codec: str):
        """Create a kv store with the given codecs (see
        :class:`~repro.storage.kvstore.KVStore`), routed by ``key_shard``
        when the env is sharded.

        ``key_shard`` is ``"term"`` for stores keyed by ``(term, ...)`` tuples
        (short lists, delta lists, clustered score lists, fancy lists) and
        ``"doc"`` for stores keyed by document id (Score, deleted,
        ListScore/ListChunk bookkeeping).

        On an environment rebuilt by crash recovery the store already exists
        (restored from the durability catalog); the index attaches to it
        instead of creating a fresh one.
        """
        if getattr(self.env, "recovered", False):
            try:
                return self.env.kvstore(name)
            except StorageError:
                pass
        codecs = {"key_codec": key_codec, "value_codec": value_codec}
        if isinstance(self.env, ShardedEnvironment):
            return self.env.create_kvstore(name, key_shard=key_shard, **codecs)
        return self.env.create_kvstore(name, **codecs)

    def _create_heapfile(self, name: str, key_shard: str = "term"):
        """Create a heap file, with per-term segment routing when sharded.

        Attaches to the restored heap file on a recovered environment, like
        :meth:`_create_kvstore`.
        """
        if getattr(self.env, "recovered", False):
            try:
                return self.env.heapfile(name)
            except StorageError:
                pass
        if isinstance(self.env, ShardedEnvironment):
            return self.env.create_heapfile(name, key_shard=key_shard)
        return self.env.create_heapfile(name)

    def _drop_store_pages(self, store, accounted: bool = False) -> None:
        """Evict a kv store's pages from whichever pool(s) hold them."""
        if isinstance(store, ShardedKVStore):
            store.drop_from_cache(accounted=accounted)
        else:
            self.env.pool.drop(store.page_ids(accounted=accounted))

    # ------------------------------------------------------------------
    # Hot-term list cache + directory-served plan descriptions
    # ------------------------------------------------------------------

    def _make_list_cache(self, list_cache_pages: "int | None") -> "InvertedListCache | None":
        pages = (list_cache_pages_from_environ() if list_cache_pages is None
                 else int(list_cache_pages))
        if pages <= 0:
            return None
        return InvertedListCache(budget_bytes=pages * self.page_size)

    def _forget_scores(self, doc_ids: "Iterable[int]") -> None:
        """Forget the memoised scores of the documents a write changes; every
        write entry point calls this before its first Score- or deleted-table
        write.  Cached long lists stay valid: no write touches them."""
        if self.list_cache is not None:
            self.list_cache.forget_scores(doc_ids)

    def invalidate_list_cache_shard(self, shard: "int | None") -> None:
        """Drop one shard's hot-term cache entries (quarantine, reopen)."""
        if self.list_cache is not None:
            self.list_cache.invalidate_shard(shard)

    def describe_term_plan(self, term: str) -> dict:
        """Planner-visible description of one term's long-list scan.

        The EXPLAIN building block: everything here is served from existing
        in-memory state (segment handles, cache membership) or the
        accounting-free peek path (a long list's page 0), so describing a
        plan performs **zero accounted storage accesses**.

        ``layout`` is one of ``"blocked"`` (a long list, one block per page),
        ``"btree-clustered"`` (methods like Score whose postings live in a
        clustered B+-tree, not per-term segments), ``"absent"`` (no long list
        for this term) or ``"unreadable"`` (a long list whose page 0 failed
        its CRC).
        """
        return {"term": term, "layout": "btree-clustered", "blocks": None,
                "estimated_postings": None, "segment_bytes": None,
                "with_term_scores": None, "cache": None}

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def add_document(self, doc_id: int, score: float,
                     terms: Iterable[str] | None = None) -> None:
        """Stage a document for the bulk build.

        ``terms`` may be supplied to register the document's content with the
        forward index; if omitted the document must already be present there.
        Scores must be non-negative (§4.1), and a doc id is staged once.
        """
        self._check_not_finalized("add_document")
        self._validate_doc_id(doc_id)
        score = self._validate_score(score)
        if doc_id in self._staged:
            raise InvertedIndexError(f"document {doc_id} is already staged")
        if terms is not None:
            if self.documents.contains(doc_id):
                raise InvertedIndexError(
                    f"document {doc_id} already exists in the forward index"
                )
            self.documents.add_terms(doc_id, terms)
        elif not self.documents.contains(doc_id):
            raise DocumentNotFoundError(
                f"document {doc_id} has no content in the forward index; "
                "pass terms= or add it to the DocumentStore first"
            )
        document = self.documents.get(doc_id)
        self._staged[doc_id] = _StagedDocument(
            doc_id=doc_id, score=score, term_frequencies=dict(document.term_frequencies))
        self.score_table.put(doc_id, score)

    def finalize(self) -> None:
        """Build the immutable long inverted lists from the staged documents."""
        self._check_not_finalized("finalize")
        self._build_long_lists(list(self._staged.values()))
        self._staged = {}
        self._finalized = True

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has been called."""
        return self._finalized

    # ------------------------------------------------------------------
    # Score access
    # ------------------------------------------------------------------

    def current_score(self, doc_id: int) -> float | None:
        """Latest score of a document, or ``None`` if unknown or deleted."""
        if self.deleted_table.contains(doc_id):
            return None
        return self.score_table.get(doc_id, default=None)

    def document_count(self) -> int:
        """Number of live (non-deleted) documents known to the index."""
        return len(self.score_table) - len(self.deleted_table)

    # ------------------------------------------------------------------
    # Updates (method-specific behaviour provided by subclasses)
    # ------------------------------------------------------------------

    def update_score(self, doc_id: int, new_score: float) -> None:
        """Record a new SVR score for a document (Algorithm 1).

        The base implementation performs the part every method shares —
        validating the score and updating the Score table — and then hands the
        old/new scores to :meth:`_after_score_update` for the method-specific
        short/long list maintenance.
        """
        self._check_finalized("update_score")
        self._validate_doc_id(doc_id)
        new_score = self._validate_score(new_score)
        old_score = self.score_table.get(doc_id, default=None)
        if old_score is None:
            raise DocumentNotFoundError(f"document {doc_id} is not indexed")
        self._forget_scores((doc_id,))
        self.score_table.put(doc_id, new_score)
        self.update_stats.score_updates += 1
        self._after_score_update(doc_id, old_score, new_score)

    def apply_batch(self, updates: Iterable[tuple[int, float]]) -> int:
        """Apply a window of score updates as one batch (bulk Algorithm 1).

        ``updates`` yields ``(doc_id, new_score)`` pairs in arrival order.  The
        batch is semantically equivalent to calling :meth:`update_score` for
        each pair in sequence — the final Score table, short lists and
        bookkeeping tables are identical — but the write work is grouped: the
        Score table receives one sorted bulk pass over the touched documents,
        and each method's :meth:`_after_score_batch` groups its list
        maintenance per term so the underlying B+-trees descend once per leaf
        run instead of once per key.

        Returns the number of updates applied.  Like a sequential loop, a
        validation failure (bad score or doc id, unknown document) raises before
        any update in the batch is applied — the batch is pre-validated, which
        is strictly safer than the sequential loop's fail-midway behaviour.
        """
        self._check_finalized("apply_batch")
        # Validate the updates up to the first bad one, read the window's
        # Score rows in one bulk pass, then raise the first failure in
        # arrival order: nothing is written unless the whole window is valid.
        window: list[tuple[int, float]] = []
        invalid = None
        for doc_id, new_score in updates:
            try:
                window.append((self._validate_doc_id(doc_id),
                               self._validate_score(new_score)))
            except InvertedIndexError as exc:
                invalid = exc
                break
        stored = self.score_table.get_many([doc_id for doc_id, _score in window])
        changes: list[tuple[int, float, float]] = []
        pending: dict[int, float] = {}
        for doc_id, new_score in window:
            old_score = pending.get(doc_id)
            if old_score is None:
                old_score = stored.get(doc_id)
                if old_score is None:
                    raise DocumentNotFoundError(f"document {doc_id} is not indexed")
            changes.append((doc_id, old_score, new_score))
            pending[doc_id] = new_score
        if invalid is not None:
            raise invalid
        if not changes:
            return 0
        self._forget_scores(pending)
        self.score_table.put_many(pending.items())
        self.update_stats.score_updates += len(changes)
        self._after_score_batch(changes)
        return len(changes)

    def insert_document(self, doc_id: int, terms: Iterable[str], score: float) -> None:
        """Insert a new document after the index has been built (Appendix A.2)."""
        self._check_finalized("insert_document")
        self._validate_doc_id(doc_id)
        score = self._validate_score(score)
        indexed = self.score_table.contains(doc_id)
        if indexed and not self.deleted_table.contains(doc_id):
            raise InvertedIndexError(f"document {doc_id} already exists")
        previous = None
        if self.documents.contains(doc_id):
            removed = self.documents.remove(doc_id)
            if indexed:
                previous = removed
        self.documents.add_terms(doc_id, terms)
        self._forget_scores((doc_id,))
        self.deleted_table.delete_if_present(doc_id)
        self.score_table.put(doc_id, score)
        self.update_stats.documents_inserted += 1
        self._after_insert(doc_id, score, previous)

    def delete_document(self, doc_id: int) -> None:
        """Delete a document (Appendix A.2): mark it deleted in the Score table."""
        self._check_finalized("delete_document")
        self._validate_doc_id(doc_id)
        if not self.score_table.contains(doc_id) or self.deleted_table.contains(doc_id):
            raise DocumentNotFoundError(f"document {doc_id} is not indexed")
        self._forget_scores((doc_id,))
        self.deleted_table.put(doc_id, True)
        self.update_stats.documents_deleted += 1
        self._after_delete(doc_id)

    def update_content(self, doc_id: int, new_terms: Iterable[str]) -> None:
        """Replace a document's content (Appendix A.1)."""
        self._check_finalized("update_content")
        self._validate_doc_id(doc_id)
        if not self.score_table.contains(doc_id) or self.deleted_table.contains(doc_id):
            raise DocumentNotFoundError(f"document {doc_id} is not indexed")
        old_document = self.documents.get(doc_id)
        new_document = Document.from_terms(doc_id, new_terms)
        self._forget_scores((doc_id,))
        self.documents.replace(new_document)
        self.update_stats.content_updates += 1
        self._after_content_update(doc_id, old_document, new_document)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def prepare_query(self, keywords: Iterable[str], k: int) -> list[str]:
        """Validate a query and return its deduplicated term list.

        Shared by :meth:`query` and EXPLAIN (:mod:`repro.obs.explain`), so
        both reject exactly the same inputs.
        """
        self._check_finalized("query")
        terms = list(dict.fromkeys(keywords))
        if not terms:
            raise QueryError("a query needs at least one keyword")
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        return terms

    def query(self, keywords: Iterable[str], k: int,
              conjunctive: bool = True) -> QueryResponse:
        """Evaluate a top-k keyword query against the latest scores.

        Parameters
        ----------
        keywords:
            Query terms (already analysed / normalised).
        k:
            Number of results to return.
        conjunctive:
            ``True`` for AND semantics (documents containing every keyword),
            ``False`` for OR semantics (documents containing at least one).
        """
        terms = self.prepare_query(keywords, k)
        stats = QueryStats()
        before = self.env.snapshot()
        results = self._execute_query(terms, k, conjunctive, stats)
        delta = self.env.delta_since(before)
        stats.pages_read = delta.page_reads
        stats.page_writes = delta.page_writes
        stats.pool_hits = delta.pool_hits
        stats.estimated_io_ms = delta.cost_ms()
        return QueryResponse(results=tuple(results), stats=stats)

    # ------------------------------------------------------------------
    # Size / cache control (Table 1 and the cold-cache methodology)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def long_list_size_bytes(self) -> int:
        """Total serialized size of the long inverted lists (Table 1)."""

    @abc.abstractmethod
    def drop_long_list_cache(self) -> None:
        """Evict long-list pages from the buffer pool (cold-cache queries, §5.2)."""

    def short_list_size_bytes(self) -> int:
        """Total serialized size of the short lists (0 for methods without them)."""
        return 0

    # ------------------------------------------------------------------
    # Hooks implemented by subclasses
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _build_long_lists(self, staged: list[_StagedDocument]) -> None:
        """Construct the long inverted lists from the staged documents."""

    def _execute_query(self, terms: list[str], k: int, conjunctive: bool,
                       stats: QueryStats) -> list[QueryResult]:
        """Method-specific query evaluation: build every term's scan, merge."""
        with span("query.plan", terms=len(terms)):
            streams = [self._term_stream(index, term, stats)
                       for index, term in enumerate(terms)]
        with span("query.merge", k=k):
            return self._merge_term_streams(streams, terms, k, conjunctive,
                                            stats)

    @abc.abstractmethod
    def _term_stream(self, term_index: int, term: str, stats: QueryStats):
        """The scan over ``term``'s postings for one query.

        ``term_index`` is the term's position in the query; every scan counts
        into the one shared ``stats``.  The long-list methods return the
        term's block streams (:mod:`repro.core.indexes.cursor`).
        """

    @abc.abstractmethod
    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        """Merge the per-term streams (aligned with ``terms``) into the
        ranked top-k results."""

    def _after_score_update(self, doc_id: int, old_score: float, new_score: float) -> None:
        """Method-specific reaction to a score update (default: Score table only)."""

    def _after_score_batch(self, changes: list[tuple[int, float, float]]) -> None:
        """Method-specific reaction to a batch of score updates.

        ``changes`` holds ``(doc_id, old_score, new_score)`` triples in arrival
        order; ``old_score`` is the score the document had just before that
        update (including earlier updates in the same batch), so replaying the
        triples through :meth:`_after_score_update` is exactly the sequential
        behaviour.  That replay is the default; methods with per-term list
        maintenance override this to group the writes into sorted bulk passes.
        """
        for doc_id, old_score, new_score in changes:
            self._after_score_update(doc_id, old_score, new_score)

    @abc.abstractmethod
    def _after_insert(self, doc_id: int, score: float,
                      previous: "Document | None") -> None:
        """Method-specific reaction to a document insertion.

        ``previous`` is the deleted document a re-insert replaces (its
        postings may still sit in the long lists), ``None`` for a new id.
        """

    def _after_delete(self, doc_id: int) -> None:
        """Method-specific reaction to a document deletion (default: flag only).

        The deleted flag in the Score table is already set by the caller; the
        default behaviour (ignore postings, filter at query time) is exactly
        the paper's Appendix A.2 scheme.
        """

    @abc.abstractmethod
    def _after_content_update(self, doc_id: int, old_document: Document,
                              new_document: Document) -> None:
        """Method-specific reaction to a content update."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _flush_coalesced_ops(store, ops: "dict[tuple, tuple | None]") -> None:
        """Apply coalesced per-key store operations (``None`` = delete) in bulk.

        ``ops`` maps a key to the *last* operation a sequential replay would
        have performed on it; deletes run before puts, each as one sorted
        bulk pass (the store sorts).  The ordering is safe because
        coalescing already resolved any within-batch delete/put sequence on
        the same key to its final outcome.
        """
        store.delete_many([key for key, op in ops.items() if op is None],
                          ignore_missing=True)
        store.put_many([(key, op) for key, op in ops.items() if op is not None])

    @staticmethod
    def _validate_doc_id(doc_id: int) -> int:
        # Checked before anything is written: the short-list, fancy and
        # clustered-list keys hold a doc id as an unsigned 32-bit field, so a
        # wider id would fail midway through a multi-store write.
        if not isinstance(doc_id, int) or isinstance(doc_id, bool) \
                or not 0 <= doc_id <= MAX_DOC_ID:
            raise InvertedIndexError(
                f"doc ids must be ints in [0, {MAX_DOC_ID}], got {doc_id!r}")
        return doc_id

    def _validate_score(self, score: float) -> float:
        if not isinstance(score, (int, float)) or isinstance(score, bool):
            raise InvertedIndexError(f"scores must be numbers, got {score!r}")
        score = float(score)
        if not math.isfinite(score):
            # NaN has no rank, and an infinite score would collide with the
            # +/-inf sentinels of chunk bounds and the result heap's floor.
            raise InvertedIndexError(f"scores must be finite, got {score}")
        if score < 0:
            raise InvertedIndexError(f"scores must be non-negative, got {score}")
        return score

    def _check_finalized(self, operation: str) -> None:
        if not self._finalized:
            raise InvertedIndexError(
                f"{operation} requires a finalized index; call finalize() first"
            )

    def _check_not_finalized(self, operation: str) -> None:
        if self._finalized:
            raise InvertedIndexError(f"{operation} is only valid before finalize()")

    def _content_terms(self, doc_id: int) -> set[str]:
        """``Content(id)`` from Algorithm 1: the distinct terms of a document."""
        return self.documents.get(doc_id).distinct_terms

    def _live_score(self, doc_id: int) -> "float | None":
        """:meth:`_live_scores` for one document, through point lookups."""
        memo = None if self.list_cache is None else self.list_cache.scores
        if memo is not None and doc_id in memo:
            return memo[doc_id]
        score = (None if self.deleted_table.contains(doc_id)
                 else self.score_table.get(doc_id, default=None))
        if memo is not None and len(memo) < self.list_cache.SCORE_MEMO_LIMIT:
            memo[doc_id] = score
        return score

    def _live_scores(self, doc_ids: "list[int]") -> "dict[int, float | None]":
        """Score-table lookup for query processing: ``{doc_id: score or
        None}``, ``None`` for deleted documents.

        The deleted flags of every document are read first, then the Score
        rows of the live ones, each as one bulk pass that descends once per
        leaf run — the same keys, and so the same pages, as probing one
        document at a time.  With the hot-term cache enabled the lookup is
        memoised per document: every write entry point forgets the memoised
        scores of the documents it changes (:meth:`_forget_scores`), so a
        memoised score is the table's current one.  The memo is never
        consulted on the cache-off fidelity path, whose page accounting is
        pinned by the fig7/table1 fingerprints.
        """
        memo = None if self.list_cache is None else self.list_cache.scores
        scores: "dict[int, float | None]" = {}
        pending = doc_ids
        if memo is not None:
            scores = {doc_id: memo[doc_id] for doc_id in doc_ids if doc_id in memo}
            pending = [doc_id for doc_id in doc_ids if doc_id not in scores]
        deleted = self.deleted_table.get_many(pending)
        found = self.score_table.get_many(
            [doc_id for doc_id in pending if doc_id not in deleted])
        for doc_id in pending:
            scores[doc_id] = found.get(doc_id)
        if memo is not None and len(memo) < self.list_cache.SCORE_MEMO_LIMIT:
            memo.update((doc_id, scores[doc_id]) for doc_id in pending)
        return scores
