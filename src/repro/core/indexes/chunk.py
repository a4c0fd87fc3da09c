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
Score-Threshold stopping rule.  Because a query may only stop at a chunk
boundary, the shared window driver (:mod:`repro.core.indexes.cursor`) runs
it a chunk at a time: a chunk's new candidates come out of set operations
(:class:`_ChunkCandidates`) and are scored in one batch of B+-tree lookups.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby
from operator import itemgetter
from typing import Callable, Sequence

from repro.errors import InvertedIndexError
from repro.core.indexes.base import QueryResult, QueryStats, _StagedDocument
from repro.core.indexes.chunking import ChunkMap, ratio_chunks
from repro.core.indexes.cursor import (
    LongListIndex,
    run_windows,
    window_values,
)
from repro.core.result_heap import ResultHeap
from repro.storage.environment import StorageEnvironment
from repro.text.documents import DocumentStore

#: A chunk-boundary strategy: maps the build-time scores to a ChunkMap.
ChunkStrategy = Callable[[Sequence[float]], ChunkMap]


class ChunkIndex(LongListIndex):
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
    list_kind = "chunk"
    short_key_codec = "sju"

    def __init__(self, env: StorageEnvironment, documents: DocumentStore,
                 name: str = "svr", chunk_ratio: float = 6.12,
                 min_chunk_size: int = 100,
                 chunk_strategy: ChunkStrategy | None = None,
                 list_cache_pages: "int | None" = None) -> None:
        super().__init__(env, documents, name=name,
                         list_cache_pages=list_cache_pages)
        if chunk_strategy is None and chunk_ratio <= 1.0:
            raise InvertedIndexError(f"chunk_ratio must be greater than 1, got {chunk_ratio}")
        self.chunk_ratio = float(chunk_ratio)
        self.min_chunk_size = int(min_chunk_size)
        self._chunk_strategy = chunk_strategy
        self.chunk_map: ChunkMap | None = None
        # Short list key (term, -chunk_id, doc_id); ListChunk table:
        # doc_id -> (list_chunk, in_short_list).
        self._bookkeeping = self._create_kvstore(f"{name}.listchunk", key_shard="doc",
                                                 key_codec="i", value_codec="state_i")

    def _state_of(self, score: float) -> int:
        assert self.chunk_map is not None
        return self.chunk_map.chunk_of(score)

    # -- threshold (the write path is LongListIndex's) --------------------------------------------------------------

    @staticmethod
    def threshold_value_of(chunk_id: int) -> int:
        """``thresholdValueOf(cid) = cid + 1``: postings move to the short list only
        when the new score climbs more than one chunk above the list chunk."""
        return chunk_id + 1

    # -- build -------------------------------------------------------------------

    def _long_list_columns(self, staged: list[_StagedDocument]) -> dict[str, tuple]:
        """Each term's ``(chunk_id, doc_ids, term_scores)`` runs, from one
        sort of ``staged`` by ``(-chunk_id, doc_id)``."""
        scores = [document.score for document in staged]
        if self._chunk_strategy is not None:
            self.chunk_map = self._chunk_strategy(scores)
        else:
            self.chunk_map = ratio_chunks(
                scores, ratio=self.chunk_ratio, min_chunk_size=self.min_chunk_size
            )
        chunk_of = self.chunk_map.chunk_of
        ordered = sorted(((chunk_of(document.score), document) for document in staged),
                         key=lambda entry: (-entry[0], entry[1].doc_id))
        runs: dict[str, list] = defaultdict(list)
        for chunk_id, group in groupby(ordered, key=itemgetter(0)):
            doc_ids, term_scores = self._term_columns(document for _chunk_id, document in group)
            for term, ids in doc_ids.items():
                runs[term].append(
                    (chunk_id, ids, None if term_scores is None else term_scores[term]))
        return {term: (term_runs,) for term, term_runs in runs.items()}

    # -- query (Algorithm 2 with chunks) ----------------------------------------------------

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        heap = ResultHeap(k)
        candidates = _ChunkCandidates(len(terms), conjunctive, processed=set())
        self._scan(streams, candidates, heap, stats,
                   lambda next_chunk: self._can_stop(next_chunk, heap))
        return heap.results()

    def _scan(self, streams: list, candidates: "_ChunkCandidates", heap: ResultHeap,
              stats: QueryStats, can_stop: "Callable[[int], bool]",
              on_docs: "Callable[[set[int]], None] | None" = None) -> None:
        """Run the term streams a chunk at a time, from the top chunk down.

        A window is one chunk, complete once every stream has pulled one
        fragment past it; its completed documents are scored in one batch,
        in doc-id order, and ``can_stop(next_chunk)`` is asked before the
        next chunk.
        """

        def on_window(window: list, next_key: "int | None"):
            if not any(window):
                return None  # the streams are still pulling this chunk
            stats.chunks_scanned += 1
            chunk_id = -next(slices[0][0] for slices in window if slices)
            longs = [window_values(slices) or None for slices in window[0::2]]
            shorts = [window_values(slices) or None for slices in window[1::2]]
            docs, completed = candidates.complete(chunk_id, longs, shorts)
            if on_docs is not None:
                on_docs(docs)
            term_scores = None
            if self.stores_term_scores:
                found = dict(completed)
                term_scores = lambda doc_ids: [  # noqa: E731
                    found[doc_id].values() for doc_id in doc_ids]
            self._resolve_batch([doc_id for doc_id, _found in completed],
                                heap, stats, term_scores)
            if next_key is not None and can_stop(-next_key):
                return [0] * len(window)
            return None

        run_windows(streams, None, on_window, stats)

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


class _ChunkCandidates:
    """Which documents complete the query in each chunk, by set arithmetic.

    The decisions are those of a posting-at-a-time merge that walks each
    chunk in ``(doc_id, term_index, is_short)`` order and makes a document a
    candidate at the posting that gives it every required term:

    * OR (or a single term): every unprocessed document in the chunk; the
      completing posting is its first one — the lowest term, long before
      short.
    * AND: the unprocessed documents that have every term in this chunk or
      an earlier one (each term's ``seen`` map intersected with the chunk).
      The completing posting is the first posting of the highest term not
      seen earlier.

    ``found`` maps term index to the term score of the latest posting of
    each term up to and including the completing one, in the order the
    terms were first seen (Chunk-TermScore sums it, so the order fixes float
    rounding).
    """

    def __init__(self, term_count: int, conjunctive: bool, processed: "set[int]",
                 term_scores: bool = False) -> None:
        self.term_count = term_count
        self.processed = processed
        self.all_terms = conjunctive and term_count > 1
        self.term_scores = term_scores
        # AND state, per term: doc id -> term score of its latest posting in
        # an earlier chunk, and (only when term scores are summed) doc id ->
        # the chunk it was first seen in.
        self.seen: "list[dict[int, float | None]]" = [{} for _ in range(term_count)]
        self.first_chunk: "list[dict[int, int]]" = (
            [{} for _ in range(term_count)] if term_scores else []
        )

    def complete(self, chunk_id: int, longs: list, shorts: list
                 ) -> "tuple[set[int], list[tuple[int, dict | None]]]":
        """``(docs in the chunk, completions)``; completions are
        ``(doc_id, found)`` in ascending doc-id order."""
        docs: set[int] = set().union(*(m for m in longs + shorts if m is not None))
        fresh = docs.difference(self.processed)
        if self.all_terms:
            completed = self._complete_all(longs, shorts, fresh)
            self._record(chunk_id, longs, shorts)
        else:
            completed = self._complete_any(longs, shorts, fresh)
        self.processed.update(doc_id for doc_id, _found in completed)
        return docs, completed

    def _complete_any(self, longs: list, shorts: list, fresh: "set[int]") -> list:
        if not self.term_scores:
            return [(doc_id, None) for doc_id in sorted(fresh)]
        completed = []
        for doc_id in sorted(fresh):
            for term in range(self.term_count):
                postings = longs[term]
                if postings is None or doc_id not in postings:
                    postings = shorts[term]
                if postings is not None and doc_id in postings:
                    completed.append((doc_id, {term: postings[doc_id]}))
                    break
        return completed

    def _complete_all(self, longs: list, shorts: list, fresh: "set[int]") -> list:
        seen = self.seen
        terms = range(self.term_count)
        ready = fresh
        for term in terms:
            absent = ready.difference(*(m for m in (longs[term], shorts[term])
                                        if m is not None))
            if absent:
                ready -= absent.difference(seen[term])
        if not self.term_scores:
            return [(doc_id, None) for doc_id in sorted(ready)]
        return [(doc_id, self._found(doc_id, [term for term in terms
                                              if doc_id not in seen[term]],
                                     longs, shorts))
                for doc_id in sorted(ready)]

    def _record(self, chunk_id: int, longs: list, shorts: list) -> None:
        """Fold this chunk's postings into the AND state."""
        seen = self.seen
        for term in range(self.term_count):
            for postings in (longs[term], shorts[term]):
                if postings is None:
                    continue
                if self.term_scores:
                    first_seen = set(postings).difference(seen[term])
                    if first_seen:
                        self.first_chunk[term].update(dict.fromkeys(first_seen, chunk_id))
                seen[term].update(postings)

    def _found(self, doc_id: int, missing: "list[int]", longs: list,
               shorts: list) -> "dict[int, float]":
        """Term scores an AND candidate collected up to its completing posting."""
        seen = self.seen
        last = missing[-1]
        earlier = sorted((term for term in range(self.term_count) if doc_id in seen[term]),
                         key=lambda term: (-self.first_chunk[term][doc_id], term))
        found = {}
        for term in earlier + missing:
            long_postings, short_postings = longs[term], shorts[term]
            in_long = long_postings is not None and doc_id in long_postings
            in_short = short_postings is not None and doc_id in short_postings
            if term == last:
                # The completing posting: the term's first one in the chunk.
                found[term] = long_postings[doc_id] if in_long else short_postings[doc_id]
            elif term < last and in_short:
                found[term] = short_postings[doc_id]
            elif term < last and in_long:
                found[term] = long_postings[doc_id]
            else:
                found[term] = seen[term][doc_id]
        return found
