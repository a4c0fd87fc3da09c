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
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import (
    DocumentNotFoundError,
    InvertedIndexError,
    QueryError,
    ReproError,
    StorageError,
)
from repro.core.list_cache import InvertedListCache, list_cache_pages_from_environ
from repro.core.posting import (
    LazyBytesReader,
    blocked_postings_enabled,
    peek_blocked_directory,
)
from repro.obs.trace import span
from repro.storage.environment import StorageEnvironment
from repro.storage.sharding import ShardedEnvironment, ShardedKVStore
from repro.text.documents import Document, DocumentStore


@dataclass(frozen=True)
class QueryResult:
    """One ranked query result: a document id and its (latest) score."""

    doc_id: int
    score: float


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
    blocked_postings:
        Whether long lists are written with the blocked codec (per-block
        directory + CRC; see :mod:`repro.core.posting`).  ``None`` (default)
        resolves the process-wide :func:`blocked_postings_enabled` flag —
        ``REPRO_BLOCKED_POSTINGS=0`` is the fidelity off-switch that keeps the
        seed's legacy payloads and I/O fingerprints bit-identical.
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

    def __init__(self, env: "StorageEnvironment | ShardedEnvironment",
                 documents: DocumentStore, name: str = "svr",
                 blocked_postings: "bool | None" = None,
                 list_cache_pages: "int | None" = None) -> None:
        self.env = env
        self.documents = documents
        self.name = name
        self.blocked_postings = (
            blocked_postings_enabled() if blocked_postings is None
            else bool(blocked_postings)
        )
        self.list_cache = self._make_list_cache(list_cache_pages)
        self.score_table = self._create_kvstore(f"{name}.score", key_shard="doc")
        self.deleted_table = self._create_kvstore(f"{name}.deleted", key_shard="doc")
        self.update_stats = UpdateStats()
        self._staged: list[_StagedDocument] = []
        self._finalized = False

    # ------------------------------------------------------------------
    # Store creation (shard-aware)
    # ------------------------------------------------------------------

    def _create_kvstore(self, name: str, key_shard: str):
        """Create a kv store, routed by ``key_shard`` when the env is sharded.

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
        if isinstance(self.env, ShardedEnvironment):
            return self.env.create_kvstore(name, key_shard=key_shard)
        return self.env.create_kvstore(name)

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
        page_size = getattr(self.env, "page_size", None)
        if page_size is None:
            page_size = self.env.disk.page_size
        return InvertedListCache(budget_bytes=pages * page_size)

    def _invalidate_list_cache(self) -> None:
        """Drop every hot-term cache entry; called by every write entry point."""
        if self.list_cache is not None:
            self.list_cache.invalidate()

    def invalidate_list_cache_shard(self, shard: "int | None") -> None:
        """Drop one shard's hot-term cache entries (quarantine, reopen)."""
        if self.list_cache is not None:
            self.list_cache.invalidate_shard(shard)

    def _cached_long_postings(self, heapfile, handle, term: str, decode):
        """Serve ``term``'s decoded long list from the hot-term cache.

        Returns the decoded posting list on a hit, fills the cache through
        the accounting-free peek path on a miss, and returns ``None`` when
        the cache is off or the segment exceeds the whole budget (the caller
        falls back to the normal charged page scan).  Decode failures during
        a fill are shard-tagged exactly like scan failures, so the router's
        quarantine logic sees the same fault surface either way.
        """
        cache = self.list_cache
        if cache is None:
            return None
        shard = getattr(handle, "shard", None)
        postings = cache.get(shard, term)
        if postings is not None:
            return postings
        if handle.length > cache.budget_bytes:
            return None
        reader = LazyBytesReader(heapfile.peek_pages(handle))
        postings = list(self._tag_scan_errors(handle, decode(reader)))
        cache.put(shard, term, postings, nbytes=handle.length)
        return postings

    def describe_term_plan(self, term: str) -> dict:
        """Planner-visible description of one term's long-list scan.

        The EXPLAIN building block: everything here is served from existing
        in-memory state (segment dictionaries, cache membership) or the
        accounting-free peek path (the blocked header + directory), so
        describing a plan performs **zero accounted storage accesses**.

        ``layout`` is one of ``"blocked"`` (directory-backed payload),
        ``"legacy"`` (pre-blocked flat encoding), ``"btree-clustered"``
        (methods like Score whose postings live in a clustered B+-tree, not
        per-term segments), ``"absent"`` (no long list for this term) or
        ``"unreadable"`` (a blocked payload whose directory failed its CRC).
        """
        plan: dict = {
            "term": term,
            "layout": None,
            "blocks": None,
            "estimated_postings": None,
            "segment_bytes": None,
            "with_term_scores": None,
            "cache": None,
        }
        segments = getattr(self, "_segments", None)
        long_lists = getattr(self, "_long_lists", None)
        if segments is None or long_lists is None:
            plan["layout"] = "btree-clustered"
            return plan
        handle = segments.get(term)
        if handle is None:
            plan["layout"] = "absent"
            plan["estimated_postings"] = 0
            return plan
        plan["segment_bytes"] = handle.length
        cache = self.list_cache
        if cache is not None:
            shard = getattr(handle, "shard", None)
            plan["cache"] = {
                "cached": cache.peek(shard, term),
                "cacheable": handle.length <= cache.budget_bytes,
            }
        if not self.blocked_postings:
            plan["layout"] = "legacy"
            return plan
        try:
            directory = peek_blocked_directory(
                LazyBytesReader(long_lists.peek_pages(handle))
            )
        except ReproError:
            plan["layout"] = "unreadable"
            return plan
        if directory is None:
            plan["layout"] = "legacy"
            return plan
        plan["layout"] = "blocked"
        plan["blocks"] = len(directory.blocks)
        plan["estimated_postings"] = directory.total
        plan["with_term_scores"] = directory.with_term_scores
        return plan

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def add_document(self, doc_id: int, score: float,
                     terms: Iterable[str] | None = None) -> None:
        """Stage a document for the bulk build.

        ``terms`` may be supplied to register the document's content with the
        forward index; if omitted the document must already be present there.
        Scores must be non-negative (§4.1).
        """
        self._check_not_finalized("add_document")
        score = self._validate_score(score)
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
        self._staged.append(
            _StagedDocument(doc_id=doc_id, score=score,
                            term_frequencies=dict(document.term_frequencies))
        )
        self.score_table.put(doc_id, score)

    def finalize(self) -> None:
        """Build the immutable long inverted lists from the staged documents."""
        self._check_not_finalized("finalize")
        self._build_long_lists(self._staged)
        self._staged = []
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
        new_score = self._validate_score(new_score)
        old_score = self.score_table.get(doc_id, default=None)
        if old_score is None:
            raise DocumentNotFoundError(f"document {doc_id} is not indexed")
        self.score_table.put(doc_id, new_score)
        self.update_stats.score_updates += 1
        self._invalidate_list_cache()
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
        validation failure (negative score, unknown document) raises before
        any update in the batch is applied — the batch is pre-validated, which
        is strictly safer than the sequential loop's fail-midway behaviour.
        """
        self._check_finalized("apply_batch")
        changes: list[tuple[int, float, float]] = []
        pending: dict[int, float] = {}
        for doc_id, new_score in updates:
            new_score = self._validate_score(new_score)
            old_score = pending.get(doc_id)
            if old_score is None:
                old_score = self.score_table.get(doc_id, default=None)
                if old_score is None:
                    raise DocumentNotFoundError(f"document {doc_id} is not indexed")
            changes.append((doc_id, old_score, new_score))
            pending[doc_id] = new_score
        if not changes:
            return 0
        self.score_table.put_many(sorted(pending.items()))
        self.update_stats.score_updates += len(changes)
        self._invalidate_list_cache()
        self._after_score_batch(changes)
        return len(changes)

    def insert_document(self, doc_id: int, terms: Iterable[str], score: float) -> None:
        """Insert a new document after the index has been built (Appendix A.2)."""
        self._check_finalized("insert_document")
        score = self._validate_score(score)
        if self.score_table.contains(doc_id) and not self.deleted_table.contains(doc_id):
            raise InvertedIndexError(f"document {doc_id} already exists")
        if self.documents.contains(doc_id):
            self.documents.remove(doc_id)
        self.documents.add_terms(doc_id, terms)
        self.deleted_table.delete_if_present(doc_id)
        self.score_table.put(doc_id, score)
        self.update_stats.documents_inserted += 1
        self._invalidate_list_cache()
        self._after_insert(doc_id, score)

    def delete_document(self, doc_id: int) -> None:
        """Delete a document (Appendix A.2): mark it deleted in the Score table."""
        self._check_finalized("delete_document")
        if not self.score_table.contains(doc_id) or self.deleted_table.contains(doc_id):
            raise DocumentNotFoundError(f"document {doc_id} is not indexed")
        self.deleted_table.put(doc_id, True)
        self.update_stats.documents_deleted += 1
        self._invalidate_list_cache()
        self._after_delete(doc_id)

    def update_content(self, doc_id: int, new_terms: Iterable[str]) -> None:
        """Replace a document's content (Appendix A.1)."""
        self._check_finalized("update_content")
        if not self.score_table.contains(doc_id) or self.deleted_table.contains(doc_id):
            raise DocumentNotFoundError(f"document {doc_id} is not indexed")
        old_document = self.documents.get(doc_id)
        new_document = Document.from_terms(doc_id, new_terms)
        self.documents.replace(new_document)
        self.update_stats.content_updates += 1
        self._invalidate_list_cache()
        self._after_content_update(doc_id, old_document, new_document)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def prepare_query(self, keywords: Iterable[str], k: int) -> list[str]:
        """Validate a query and return its deduplicated term list.

        Shared by :meth:`query` and the router's parallel fan-out path, so
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

    def _tag_scan_errors(self, handle, postings):
        """Attribute hard scan failures to the owning failure domain.

        Long-list payload corruption (a failed block CRC, a torn varint) is
        detected by the codec deep inside a scan iterator, far from any shard
        bookkeeping.  When the segment handle carries a shard id — as it does
        on sharded environments — stamp untagged :class:`ReproError`\\ s with
        it on the way out, so the router's quarantine logic can confine the
        fault to that shard instead of failing the whole query.  Handles
        without a shard (single-shard environments) pass through untouched.
        """
        shard = getattr(handle, "shard", None)
        if shard is None:
            return postings

        def tagged():
            try:
                yield from postings
            except ReproError as exc:
                if getattr(exc, "shard", None) is None:
                    exc.shard = shard
                raise

        return tagged()

    @abc.abstractmethod
    def _term_stream(self, term_index: int, term: str, stats: QueryStats):
        """The scan iterator over ``term``'s postings for one query.

        ``term_index`` is the term's position in the query (methods tag
        postings with it); every scan counts into the one shared ``stats``.
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

    def _after_insert(self, doc_id: int, score: float) -> None:
        """Method-specific reaction to a document insertion."""
        raise InvertedIndexError(
            f"{self.method_name} does not support incremental document insertion"
        )

    def _after_delete(self, doc_id: int) -> None:
        """Method-specific reaction to a document deletion (default: flag only).

        The deleted flag in the Score table is already set by the caller; the
        default behaviour (ignore postings, filter at query time) is exactly
        the paper's Appendix A.2 scheme.
        """

    def _after_content_update(self, doc_id: int, old_document: Document,
                              new_document: Document) -> None:
        """Method-specific reaction to a content update."""
        raise InvertedIndexError(
            f"{self.method_name} does not support incremental content updates"
        )

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _batch_promote_short_lists(self, changes: list[tuple[int, float, float]],
                                   bookkeeping, short_store,
                                   state_of, payload_of) -> None:
        """Shared batch replay for the threshold-style methods.

        Score-Threshold and Chunk share one update algorithm: a bookkeeping
        table maps ``doc_id -> (list_state, in_short_list)``, and an update
        promotes the document's postings into the short lists only when its
        new state exceeds ``threshold_value_of(list_state)`` (the caller must
        define that method).  Whether an update crosses the threshold depends
        on the state left by earlier updates in the batch, so decisions replay
        sequentially against an in-memory overlay of the bookkeeping table;
        the short-list operations coalesce to the last operation per key and
        flush as sorted bulk passes together with the dirtied rows.

        ``state_of`` maps a score to the method's list state (identity for
        Score-Threshold, ``chunk_of`` for Chunk); ``payload_of(doc_id, term)``
        builds the short-list value for a promoted posting.
        """
        state: dict[int, tuple] = {}
        dirty: set[int] = set()
        short_ops: dict[tuple, tuple | None] = {}
        for doc_id, old_score, new_score in changes:
            entry = state.get(doc_id)
            if entry is None:
                entry = bookkeeping.get(doc_id, default=None)
                if entry is None:
                    entry = (state_of(old_score), False)
                    dirty.add(doc_id)
                state[doc_id] = entry
            list_state, in_short_list = entry
            new_state = state_of(new_score)
            if new_state <= self.threshold_value_of(list_state):
                continue
            for term in self._content_terms(doc_id):
                if in_short_list:
                    short_ops[(term, -list_state, doc_id)] = None
                short_ops[(term, -new_state, doc_id)] = payload_of(doc_id, term)
                self.update_stats.short_list_postings_written += 1
            state[doc_id] = (new_state, True)
            dirty.add(doc_id)
            self.update_stats.short_list_updates += 1
        self._flush_coalesced_ops(short_store, short_ops)
        bookkeeping.put_many(sorted((doc_id, state[doc_id]) for doc_id in dirty))

    @staticmethod
    def _flush_coalesced_ops(store, ops: "dict[tuple, tuple | None]") -> None:
        """Apply coalesced per-key store operations (``None`` = delete) in bulk.

        ``ops`` maps a key to the *last* operation a sequential replay would
        have performed on it; deletes run before puts, each as one sorted
        bulk pass.  The ordering is safe because coalescing already resolved
        any within-batch delete/put sequence on the same key to its final
        outcome.
        """
        deletes = sorted(key for key, op in ops.items() if op is None)
        puts = sorted(
            ((key, op) for key, op in ops.items() if op is not None),
            key=lambda item: item[0],
        )
        store.delete_many(deletes, ignore_missing=True)
        store.put_many(puts)

    def _validate_score(self, score: float) -> float:
        if not isinstance(score, (int, float)) or isinstance(score, bool):
            raise InvertedIndexError(f"scores must be numbers, got {score!r}")
        score = float(score)
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

    def _live_score(self, doc_id: int) -> float | None:
        """Score-table lookup used during query processing (skips deleted docs).

        With the hot-term cache enabled the lookup is memoised per document:
        scores are immutable between writes (every write entry point
        invalidates the cache, clearing the memo with it), and query
        processing probes the same hot documents over and over.  The memo is
        never consulted on the cache-off fidelity path, whose page accounting
        is pinned by the fig7/table1 fingerprints.
        """
        cache = self.list_cache
        if cache is None:
            if self.deleted_table.contains(doc_id):
                return None
            return self.score_table.get(doc_id, default=None)
        memo = cache.scores
        if doc_id in memo:
            return memo[doc_id]
        if self.deleted_table.contains(doc_id):
            score = None
        else:
            score = self.score_table.get(doc_id, default=None)
        if len(memo) < cache.SCORE_MEMO_LIMIT:
            memo[doc_id] = score
        return score

    def _live_scores(self, doc_ids: "list[int]") -> "dict[int, float | None]":
        """Batched :meth:`_live_score`: ``{doc_id: score or None}``.

        The deleted flags of every document are read first, then the Score
        rows of the live ones, each as one bulk pass that descends once per
        leaf run — the same keys, and so the same pages, as probing one
        document at a time.  The live-score memo applies exactly as in
        :meth:`_live_score`.
        """
        cache = self.list_cache
        memo = None if cache is None else cache.scores
        scores: "dict[int, float | None]" = {}
        pending = doc_ids
        if memo is not None:
            pending = []
            for doc_id in doc_ids:
                if doc_id in memo:
                    scores[doc_id] = memo[doc_id]
                else:
                    pending.append(doc_id)
        deleted = self.deleted_table.get_many(pending)
        found = self.score_table.get_many(
            [doc_id for doc_id in pending if doc_id not in deleted]
        )
        for doc_id in pending:
            score = found.get(doc_id)
            scores[doc_id] = score
            if memo is not None and len(memo) < cache.SCORE_MEMO_LIMIT:
                memo[doc_id] = score
        return scores
