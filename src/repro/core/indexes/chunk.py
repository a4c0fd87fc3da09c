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
boundary, it is evaluated a chunk at a time: each term stream yields
block-local chunk fragments, a chunk's new candidates come out of set
operations, and they are scored in one batch of B+-tree lookups.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

from repro.errors import InvertedIndexError
from repro.core.indexes.base import InvertedIndex, QueryResult, QueryStats, _StagedDocument
from repro.core.indexes.chunking import ChunkMap, ratio_chunks
from repro.core.posting import (
    LazyBytesReader,
    build_chunk_runs,
    encode_blocked_chunk_runs,
    encode_chunk_runs,
    iter_blocked_chunk_postings_lazy,
    iter_chunk_postings_lazy,
)
from repro.core.result_heap import ResultHeap
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

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        assert self.chunk_map is not None
        heap = ResultHeap(k)
        candidates = _ChunkCandidates(len(terms), conjunctive, processed=set(),
                                      stale_of=self._stale_long_docs)
        for chunk_id, longs, shorts in self._scan_chunks(
                streams, stats, lambda next_chunk: self._can_stop(next_chunk, heap)):
            _docs, completed = candidates.complete(chunk_id, longs, shorts)
            self._resolve_candidates(completed, heap, stats)
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

    @staticmethod
    def _scan_chunks(streams: list, stats: QueryStats, can_stop):
        """Pull the term streams one chunk at a time, from the top chunk down.

        Yields ``(chunk_id, longs, shorts)`` per scanned chunk: ``longs[t]``
        / ``shorts[t]`` map the doc ids of term ``t``'s long / short postings
        in the chunk to their term scores (``None`` values when the list
        stores none), or are ``None`` when the term has no such posting
        there.  Gathering a chunk pulls all of its fragments plus one
        lookahead fragment per stream — with the per-list lookahead inside
        each stream, exactly what a posting-at-a-time k-way merge pulls by
        the time it meets the next chunk — and ``can_stop(next_chunk)`` is
        asked before crossing into the next chunk, after the consumer has
        resolved this one.
        """
        heads = [next(stream, None) for stream in streams]
        chunk_id = None
        while True:
            pending = [head[0] for head in heads if head is not None]
            if not pending:
                return
            neg_chunk = min(pending)
            if chunk_id is not None and can_stop(-neg_chunk):
                stats.stopped_early = True
                return
            chunk_id = -neg_chunk
            stats.chunks_scanned += 1
            longs: list = [None] * len(streams)
            shorts: list = [None] * len(streams)
            for position, stream in enumerate(streams):
                head = heads[position]
                while head is not None and head[0] == neg_chunk:
                    _neg, term_index, is_short, doc_ids, term_scores = head
                    postings = (dict.fromkeys(doc_ids) if term_scores is None
                                else dict(zip(doc_ids, term_scores)))
                    side = shorts if is_short else longs
                    if side[term_index] is None:
                        side[term_index] = postings
                    else:
                        side[term_index].update(postings)
                    head = next(stream, None)
                heads[position] = head
            yield chunk_id, longs, shorts

    def _stale_long_docs(self, doc_ids: "list[int]") -> "set[int]":
        """The documents whose ListChunk row says they live in the short lists.

        Their long postings are stale: the short postings represent them.
        One bulk pass that descends once per B+-tree leaf run.
        """
        rows = self._list_chunk.get_many(doc_ids)
        return {doc_id for doc_id, (_chunk, in_short) in rows.items() if in_short}

    def _resolve_candidates(self, completed: list, heap: ResultHeap,
                            stats: QueryStats) -> None:
        """Score one chunk's completed documents as a batch, in doc-id order.

        Two bulk passes, each descending once per B+-tree leaf run: the
        deleted flags, then the Score rows of the survivors — the same keys
        a candidate-at-a-time loop probes, so the same pages.
        """
        if not completed:
            return
        stats.candidates += len(completed)
        stats.score_lookups += len(completed)
        scores = self._live_scores([doc_id for doc_id, _short, _found in completed])
        for doc_id, _from_short, found in completed:
            score = scores[doc_id]
            if score is None:
                continue
            stats.heap_offers += 1
            heap.add(doc_id, self._candidate_score(score, found))

    def _candidate_score(self, score: float, found: "dict | None") -> float:
        """Ranking score of a candidate (the plain Chunk method: its SVR score)."""
        del found
        return score

    # -- per-term streams ------------------------------------------------------------------

    def _term_stream(self, term_index: int, term: str, stats: QueryStats):
        """One term's short + long postings as chunk fragments, top chunk first.

        Yields ``(-chunk_id, term_index, is_short, doc_ids, term_scores)``;
        within a chunk the long fragments precede the short one.
        """
        short_fragments, removed = self._load_short(term_index, term)
        return heapq.merge(
            _counted_short(short_fragments, stats),
            self._long_fragments(term_index, term, removed, stats),
        )

    def _long_fragments(self, term_index: int, term: str, removed: "set[int]",
                        stats: QueryStats):
        """The long list's fragments minus the postings the short list REMoved.

        ``postings_scanned`` counts exactly what a posting-at-a-time scan
        counts: when a fragment is pulled, its postings up to the first one
        kept; the rest when the next fragment is asked for, which happens
        only if the merge scanned this fragment's chunk.
        """
        for chunk_id, doc_ids, term_scores in self._iter_long(term):
            count = len(doc_ids)
            pulled = 1
            if removed and not removed.isdisjoint(doc_ids):
                kept = [i for i, doc_id in enumerate(doc_ids) if doc_id not in removed]
                if not kept:
                    stats.postings_scanned += count
                    continue
                pulled = kept[0] + 1
                doc_ids = [doc_ids[i] for i in kept]
                if term_scores is not None:
                    term_scores = [term_scores[i] for i in kept]
            stats.postings_scanned += pulled
            yield -chunk_id, term_index, False, doc_ids, term_scores
            stats.postings_scanned += count - pulled

    def _iter_long(self, term: str):
        """Stream the long list as ``(chunk_id, doc_ids, term_scores)`` fragments."""
        handle = self._segments.get(term)
        if handle is None:
            return
        if self.blocked_postings:
            cached = self._cached_long_postings(
                self._long_lists, handle, term, iter_blocked_chunk_postings_lazy
            )
            if cached is not None:
                yield from cached
                return
            reader = LazyBytesReader(self._long_lists.iter_pages(handle))
            yield from self._tag_scan_errors(
                handle, iter_blocked_chunk_postings_lazy(reader))
            return
        # The legacy reader decodes posting by posting; each posting becomes
        # a one-posting fragment, so pulls — and pages read — stay as they were.
        reader = LazyBytesReader(self._long_lists.iter_pages(handle))
        postings = self._tag_scan_errors(handle, iter_chunk_postings_lazy(reader))
        for chunk_id, doc_id, term_score in postings:
            yield chunk_id, [doc_id], [term_score]

    def _load_short(self, term_index: int, term: str) -> tuple[list, set[int]]:
        """One term's short list: ADD postings as stream fragments (one per
        chunk, top chunk first) plus the ids of REMoved long postings."""
        fragments: list = []
        removed: set[int] = set()
        # Keys (term, -chunk_id, doc_id) already come in stream order.
        for (_term, neg_chunk, doc_id), (operation, term_score) in self._short.prefix_items((term,)):
            if operation != _ADD:
                removed.add(doc_id)
            elif fragments and fragments[-1][0] == neg_chunk:
                fragments[-1][3].append(doc_id)
                fragments[-1][4].append(term_score)
            else:
                fragments.append((neg_chunk, term_index, True, [doc_id], [term_score]))
        return fragments, removed


def _counted_short(fragments: list, stats: QueryStats):
    """Yield short-list fragments, counting postings as a per-posting scan
    would: the first when a fragment is pulled, the rest once it is scanned."""
    for fragment in fragments:
        stats.postings_scanned += 1
        yield fragment
        stats.postings_scanned += len(fragment[3]) - 1


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

    ``from_short`` is whether a short posting came up to and including the
    completing one; ``found`` maps term index to the term score of the
    latest such posting of each term, in the order the terms were first seen
    (Chunk-TermScore sums it, so the order fixes float rounding).

    A completion made only of long postings is checked against ListChunk
    (``stale_of``).  When the row says the document lives in the short
    lists, its long postings are stale — it was deleted and re-inserted at a
    lower chunk — so they are dropped, for this chunk and every later one,
    and the document completes from its short postings when they arrive.
    It is not marked processed on the stale completion.
    """

    def __init__(self, term_count: int, conjunctive: bool, processed: "set[int]",
                 stale_of: "Callable[[list[int]], set[int]]",
                 term_scores: bool = False) -> None:
        self.term_count = term_count
        self.processed = processed
        self.stale_of = stale_of
        #: Documents whose long postings are known to be stale.
        self.stale: "set[int]" = set()
        self.all_terms = conjunctive and term_count > 1
        self.term_scores = term_scores
        # AND state, per term: doc id -> term score of its latest posting in
        # an earlier chunk, and (only when term scores are summed) doc id ->
        # the chunk it was first seen in.
        self.seen: "list[dict[int, float | None]]" = [{} for _ in range(term_count)]
        self.first_chunk: "list[dict[int, int]]" = (
            [{} for _ in range(term_count)] if term_scores else []
        )
        self.short_seen: "set[int]" = set()

    def complete(self, chunk_id: int, longs: list, shorts: list
                 ) -> "tuple[set[int], list[tuple[int, bool, dict | None]]]":
        """``(docs in the chunk, completions)``; completions are
        ``(doc_id, from_short, found)`` in ascending doc-id order."""
        if self.stale:
            longs = self._drop_stale(longs)
        short_docs: set[int] = set().union(*(m for m in shorts if m is not None))
        docs = short_docs.union(*(m for m in longs if m is not None))
        completed = self._completions(longs, shorts, short_docs,
                                      docs.difference(self.processed))
        long_only = [doc_id for doc_id, from_short, _found in completed if not from_short]
        stale = self.stale_of(long_only) if long_only else None
        if stale:
            self.stale |= stale
            for by_doc in (*self.seen, *self.first_chunk):
                for doc_id in stale.intersection(by_doc):
                    del by_doc[doc_id]
            longs = self._drop_stale(longs)
            docs = short_docs.union(*(m for m in longs if m is not None))
            redone = self._completions(longs, shorts, short_docs,
                                       stale & short_docs)
            completed = sorted(
                [entry for entry in completed if entry[0] not in stale] + redone,
                key=lambda entry: entry[0],
            )
        if self.all_terms:
            self._record(chunk_id, longs, shorts, short_docs)
        self.processed.update(doc_id for doc_id, _short, _found in completed)
        return docs, completed

    def _drop_stale(self, longs: list) -> list:
        stale = self.stale
        return [
            postings if postings is None or stale.isdisjoint(postings)
            else ({doc_id: score for doc_id, score in postings.items()
                   if doc_id not in stale} or None)
            for postings in longs
        ]

    def _completions(self, longs: list, shorts: list, short_docs: "set[int]",
                     fresh: "set[int]") -> list:
        if self.all_terms:
            return self._complete_all(longs, shorts, short_docs, fresh)
        return self._complete_any(longs, shorts, short_docs, fresh)

    def _complete_any(self, longs: list, shorts: list, short_docs: "set[int]",
                      fresh: "set[int]") -> list:
        completed = []
        for doc_id in sorted(fresh):
            if not self.term_scores and doc_id not in short_docs:
                completed.append((doc_id, False, None))
                continue
            for term in range(self.term_count):
                postings = longs[term]
                if postings is not None and doc_id in postings:
                    completed.append((doc_id, False, {term: postings[doc_id]}))
                    break
                postings = shorts[term]
                if postings is not None and doc_id in postings:
                    completed.append((doc_id, True, {term: postings[doc_id]}))
                    break
        return completed

    def _complete_all(self, longs: list, shorts: list,
                      short_docs: "set[int]", fresh: "set[int]") -> list:
        seen = self.seen
        terms = range(self.term_count)
        ready = fresh
        for term in terms:
            absent = ready.difference(*(m for m in (longs[term], shorts[term])
                                        if m is not None))
            if absent:
                ready -= absent.difference(seen[term])
        completed = []
        for doc_id in sorted(ready):
            if not self.term_scores and doc_id not in short_docs:
                # Every posting of the document in this chunk is long.
                completed.append((doc_id, doc_id in self.short_seen, None))
                continue
            missing = [term for term in terms if doc_id not in seen[term]]
            last = missing[-1]
            from_short = (
                doc_id in self.short_seen
                or any(shorts[term] is not None and doc_id in shorts[term]
                       for term in range(last))
                or longs[last] is None or doc_id not in longs[last]
            )
            found = (self._found(doc_id, missing, longs, shorts)
                     if self.term_scores else None)
            completed.append((doc_id, from_short, found))
        return completed

    def _record(self, chunk_id: int, longs: list, shorts: list,
                short_docs: "set[int]") -> None:
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
        self.short_seen |= short_docs

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
