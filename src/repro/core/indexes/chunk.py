"""The Chunk method (§4.3.2) — the paper's recommended index.

The document collection is partitioned into chunks by original score (see
:mod:`repro.core.indexes.chunking`).  Each term's long list stores postings
grouped by decreasing chunk id and, within a chunk, by increasing document id;
scores are *not* stored in the list (only the chunk id appears, once per
chunk), so the long lists stay as small as the ID method's.

Score updates touch the short lists only when a document's new score moves it
up by **more than one chunk** (``thresholdValueOf(cid) = cid + 1``), which
makes most updates a single Score-table write.  Queries scan chunks from the
top downwards, merging short and long lists, and stop one chunk after the
top-k results can no longer change — the chunk-granularity analogue of the
Score-Threshold stopping rule.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Sequence

from repro.errors import InvertedIndexError
from repro.core.indexes.base import InvertedIndex, QueryResult, QueryStats, _StagedDocument, _TermPlan
from repro.core.indexes.chunking import ChunkMap, ratio_chunks
from repro.core.posting import (
    LazyBytesReader,
    build_chunk_runs,
    encode_blocked_chunk_runs,
    encode_chunk_runs,
    iter_blocked_chunk_postings_lazy,
    iter_chunk_postings_lazy,
)
from repro.core.result_heap import ResultHeap, merge_ranked_streams
from repro.storage.environment import StorageEnvironment
from repro.storage.heap_file import SegmentHandle
from repro.text.documents import Document, DocumentStore

_ADD = "ADD"
_REM = "REM"

#: A chunk-boundary strategy: maps the build-time scores to a ChunkMap.
ChunkStrategy = Callable[[Sequence[float]], ChunkMap]


class ChunkIndex(InvertedIndex):
    """The Chunk method.

    Parameters
    ----------
    chunk_ratio:
        Ratio between adjacent chunks' lowest scores (Table 2's tuning knob).
    min_chunk_size:
        Minimum number of documents per chunk (the paper uses 100).
    chunk_strategy:
        Optional override of the boundary strategy; receives the build-time
        scores and returns a :class:`ChunkMap`.  When provided, ``chunk_ratio``
        and ``min_chunk_size`` are ignored.
    """

    method_name = "chunk"
    stores_term_scores = False

    def __init__(self, env: StorageEnvironment, documents: DocumentStore,
                 name: str = "svr", chunk_ratio: float = 6.12,
                 min_chunk_size: int = 100,
                 chunk_strategy: ChunkStrategy | None = None,
                 blocked_postings: "bool | None" = None,
                 list_cache_pages: "int | None" = None) -> None:
        super().__init__(env, documents, name=name,
                         blocked_postings=blocked_postings,
                         list_cache_pages=list_cache_pages)
        if chunk_strategy is None and chunk_ratio <= 1.0:
            raise InvertedIndexError(f"chunk_ratio must be greater than 1, got {chunk_ratio}")
        self.chunk_ratio = float(chunk_ratio)
        self.min_chunk_size = int(min_chunk_size)
        self._chunk_strategy = chunk_strategy
        self.chunk_map: ChunkMap | None = None
        self._long_lists = self._create_heapfile(f"{name}.long")
        self._segments: dict[str, SegmentHandle] = {}
        # Short list key: (term, -chunk_id, doc_id) -> (operation, term_score).
        self._short = self._create_kvstore(f"{name}.short", key_shard="term")
        # ListChunk table: doc_id -> (list_chunk, in_short_list).
        self._list_chunk = self._create_kvstore(f"{name}.listchunk", key_shard="doc")

    # -- threshold --------------------------------------------------------------

    @staticmethod
    def threshold_value_of(chunk_id: int) -> int:
        """``thresholdValueOf(cid) = cid + 1``: postings move to the short list only
        when the new score climbs more than one chunk above the list chunk."""
        return chunk_id + 1

    # -- build -------------------------------------------------------------------

    def _build_long_lists(self, staged: list[_StagedDocument]) -> None:
        scores = [document.score for document in staged]
        if self._chunk_strategy is not None:
            self.chunk_map = self._chunk_strategy(scores)
        else:
            self.chunk_map = ratio_chunks(
                scores, ratio=self.chunk_ratio, min_chunk_size=self.min_chunk_size
            )
        term_docs: dict[str, list[tuple[int, int, float]]] = {}
        for document in staged:
            chunk_id = self.chunk_map.chunk_of(document.score)
            for term in document.term_frequencies:
                term_docs.setdefault(term, []).append(
                    (document.doc_id, chunk_id, self._build_term_score(document.doc_id, term))
                )
        for term, entries in term_docs.items():
            runs = build_chunk_runs(entries)
            if self.blocked_postings:
                payload = encode_blocked_chunk_runs(
                    runs, with_term_scores=self.stores_term_scores
                )
            else:
                payload = encode_chunk_runs(
                    runs, with_term_scores=self.stores_term_scores
                )
            self._segments[term] = self._long_lists.write(payload, key=term)
            self.update_stats.long_list_postings_written += len(entries)

    def _build_term_score(self, doc_id: int, term: str) -> float:
        """Per-posting term score (0.0 for the plain Chunk method)."""
        del doc_id, term
        return 0.0

    # -- size / cache ---------------------------------------------------------------

    def long_list_size_bytes(self) -> int:
        return self._long_lists.total_bytes()

    def short_list_size_bytes(self) -> int:
        return self._short.size_bytes()

    def drop_long_list_cache(self) -> None:
        self._long_lists.drop_from_cache()

    # -- score updates (Algorithm 1 with chunks) ----------------------------------------

    def _after_score_update(self, doc_id: int, old_score: float, new_score: float) -> None:
        assert self.chunk_map is not None
        new_chunk = self.chunk_map.chunk_of(new_score)
        entry = self._list_chunk.get(doc_id, default=None)
        if entry is not None:
            list_chunk, in_short_list = entry
        else:
            list_chunk = self.chunk_map.chunk_of(old_score)
            in_short_list = False
            self._list_chunk.put(doc_id, (list_chunk, False))
        if new_chunk <= self.threshold_value_of(list_chunk):
            return
        for term in self._content_terms(doc_id):
            if in_short_list:
                self._short.delete_if_present((term, -list_chunk, doc_id))
            self._short.put(
                (term, -new_chunk, doc_id), (_ADD, self._current_term_score(doc_id, term))
            )
            self.update_stats.short_list_postings_written += 1
        self._list_chunk.put(doc_id, (new_chunk, True))
        self.update_stats.short_list_updates += 1

    def _after_score_batch(self, changes: list[tuple[int, float, float]]) -> None:
        """Replay the chunk-threshold decisions in order, flush writes in bulk.

        The list state is the chunk id of the score; see
        :meth:`InvertedIndex._batch_promote_short_lists` for the shared
        overlay-replay algorithm.  Chunk-TermScore inherits this unchanged
        (its per-posting term score comes through :meth:`_current_term_score`).
        """
        assert self.chunk_map is not None
        self._batch_promote_short_lists(
            changes, self._list_chunk, self._short,
            state_of=self.chunk_map.chunk_of,
            payload_of=lambda doc_id, term: (
                _ADD, self._current_term_score(doc_id, term)
            ),
        )

    def _current_term_score(self, doc_id: int, term: str) -> float:
        """Term score stored with short-list postings (0.0 for the plain Chunk method)."""
        del doc_id, term
        return 0.0

    # -- document changes (Appendix A) ----------------------------------------------------

    def _after_insert(self, doc_id: int, score: float) -> None:
        assert self.chunk_map is not None
        chunk_id = self.chunk_map.chunk_of(score)
        entries = sorted(
            ((term, -chunk_id, doc_id), (_ADD, self._current_term_score(doc_id, term)))
            for term in self._content_terms(doc_id)
        )
        self._short.put_many(entries)
        self.update_stats.short_list_postings_written += len(entries)
        self._list_chunk.put(doc_id, (chunk_id, True))

    def _after_content_update(self, doc_id: int, old_document: Document,
                              new_document: Document) -> None:
        assert self.chunk_map is not None
        entry = self._list_chunk.get(doc_id, default=None)
        if entry is not None:
            list_chunk = entry[0]
        else:
            list_chunk = self.chunk_map.chunk_of(self.score_table.get(doc_id))
        added = new_document.distinct_terms - old_document.distinct_terms
        removed = old_document.distinct_terms - new_document.distinct_terms
        entries = sorted(
            [((term, -list_chunk, doc_id),
              (_ADD, self._current_term_score(doc_id, term))) for term in added]
            + [((term, -list_chunk, doc_id), (_REM, 0.0)) for term in removed]
        )
        self._short.put_many(entries)
        self.update_stats.short_list_postings_written += len(entries)

    # -- query (Algorithm 2 with chunks) ----------------------------------------------------

    def _make_term_plan(self, term: str) -> _TermPlan:
        return _TermPlan(
            term,
            lambda index, stats: self._term_stream(index, term, stats),
        )

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        assert self.chunk_map is not None
        required = len(terms) if conjunctive else 1
        heap = ResultHeap(k)
        merged = merge_ranked_streams(streams)
        seen_terms: dict[int, set[int]] = {}
        seen_short: dict[int, bool] = {}
        processed: set[int] = set()
        current_chunk: int | None = None
        for neg_chunk, doc_id, term_index, is_short, _term_score in merged:
            chunk_id = -neg_chunk
            if chunk_id != current_chunk:
                # Crossing into a lower chunk: the previous chunk is complete, so
                # apply the end-of-chunk stopping rule before going on.
                if current_chunk is not None and self._can_stop(chunk_id, heap):
                    stats.stopped_early = True
                    break
                current_chunk = chunk_id
                stats.chunks_scanned += 1
            if doc_id in processed:
                continue
            terms_seen = seen_terms.setdefault(doc_id, set())
            terms_seen.add(term_index)
            seen_short[doc_id] = seen_short.get(doc_id, False) or is_short
            if len(terms_seen) < required:
                continue
            processed.add(doc_id)
            stats.candidates += 1
            self._process_candidate(doc_id, seen_short[doc_id], heap, stats)
        return [QueryResult(entry.doc_id, entry.score) for entry in heap.results()]

    def _can_stop(self, next_chunk: int, heap: ResultHeap) -> bool:
        """End-of-chunk stopping rule.

        Every document not yet fully seen has its postings in chunk
        ``next_chunk`` or below, so its *latest* score is below the lower bound
        of chunk ``next_chunk + 2`` (it could have silently climbed at most one
        chunk without entering the short lists).  Once the heap holds k results
        at or above that bound, no remaining document can displace them.
        """
        assert self.chunk_map is not None
        if not heap.is_full:
            return False
        bound = self.chunk_map.lower_bound(next_chunk + 2)
        return heap.min_score() >= bound

    def _process_candidate(self, doc_id: int, from_short: bool, heap: ResultHeap,
                           stats: QueryStats) -> None:
        if not from_short:
            entry = self._list_chunk.get(doc_id, default=None)
            if entry is not None and entry[1]:
                # Short-list postings exist; the long-list occurrence is ignored.
                return
        current = self._live_score(doc_id)
        stats.score_lookups += 1
        if current is None:
            return
        stats.heap_offers += 1
        heap.add(doc_id, current)

    # -- per-term streams ------------------------------------------------------------------

    def _term_stream(self, term_index: int, term: str,
                     stats: QueryStats) -> Iterator[tuple[int, int, int, bool, float]]:
        """One term's short + long postings in (decreasing chunk, increasing doc id) order.

        Yields ``(-chunk_id, doc_id, term_index, is_short, term_score)``.
        """
        short_adds, removed = self._load_short(term)
        long_postings = self._iter_long(term, stats)

        def short_iter() -> Iterator[tuple[int, int, int, bool, float]]:
            for chunk_id, doc_id, term_score in short_adds:
                stats.postings_scanned += 1
                yield -chunk_id, doc_id, term_index, True, term_score

        def long_iter() -> Iterator[tuple[int, int, int, bool, float]]:
            for chunk_id, doc_id, term_score in long_postings:
                if doc_id in removed:
                    continue
                yield -chunk_id, doc_id, term_index, False, term_score

        return heapq.merge(short_iter(), long_iter())

    def _iter_long(self, term: str,
                   stats: QueryStats) -> "Iterator[tuple[int, int, float]]":
        """Stream ``(chunk_id, doc_id, term_score)`` triples from the long list."""
        handle = self._segments.get(term)
        if handle is None:
            return
        if self.blocked_postings:
            cached = self._cached_long_postings(
                self._long_lists, handle, term, iter_blocked_chunk_postings_lazy
            )
            if cached is not None:
                for posting in cached:
                    stats.postings_scanned += 1
                    yield posting
                return
        reader = LazyBytesReader(self._long_lists.iter_pages(handle))
        if self.blocked_postings:
            postings = iter_blocked_chunk_postings_lazy(reader)
        else:
            postings = iter_chunk_postings_lazy(reader)
        for posting in self._tag_scan_errors(handle, postings):
            stats.postings_scanned += 1
            yield posting

    def _load_short(self, term: str) -> tuple[list[tuple[int, int, float]], set[int]]:
        """One term's short list: (chunk_id, doc_id, term_score) adds plus removed ids."""
        adds: list[tuple[int, int, float]] = []
        removed: set[int] = set()
        for (_term, neg_chunk, doc_id), (operation, term_score) in self._short.prefix_items((term,)):
            if operation == _ADD:
                adds.append((-neg_chunk, doc_id, term_score))
            else:
                removed.add(doc_id)
        adds.sort(key=lambda entry: (-entry[0], entry[1]))
        return adds, removed
