"""The ID method (§4.2.1): traditional ID-ordered inverted lists.

Each term's long inverted list holds the ids of the documents containing the
term, in increasing id order, delta-encoded and stored as an immutable binary
object.  A separate Score table (owned by the base class) maps document ids to
their current scores.

* **Score updates** only touch the Score table — the cheapest possible update.
* **Queries** must merge the *entire* long list of every query term, because a
  document anywhere in the lists may hold the highest current score.  This is
  the full-scan behaviour the paper measures as the ID method's weakness.  The
  merge runs a doc-id window at a time, with set-based candidates scored in
  one batch of Score-table lookups per window.
* **Incremental document changes** are handled with a small ID-ordered delta
  list per term (``(term, doc_id) -> ADD | REM``), merged with the long list at
  query time; this mirrors Appendix A applied to the ID layout.  A re-insert
  of a deleted id REMs the terms the document no longer has.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from repro.core.indexes.base import InvertedIndex, QueryResult, QueryStats, _StagedDocument
from repro.core.posting import (
    LazyBytesReader,
    Posting,
    encode_blocked_id_postings,
    encode_id_postings,
    iter_blocked_id_postings_lazy,
    iter_id_postings_lazy,
)
from repro.core.result_heap import ResultHeap
from repro.storage.environment import StorageEnvironment
from repro.storage.heap_file import SegmentHandle
from repro.text.documents import Document, DocumentStore

#: Marker values stored in the delta list.
_ADD = "ADD"
_REM = "REM"


class IDIndex(InvertedIndex):
    """The ID method: ID-ordered long lists plus a Score table."""

    method_name = "id"
    stores_term_scores = False

    def __init__(self, env: StorageEnvironment, documents: DocumentStore,
                 name: str = "svr", blocked_postings: "bool | None" = None,
                 list_cache_pages: "int | None" = None) -> None:
        super().__init__(env, documents, name=name,
                         blocked_postings=blocked_postings,
                         list_cache_pages=list_cache_pages)
        self._long_lists = self._create_heapfile(f"{name}.long")
        self._segments: dict[str, SegmentHandle] = {}
        self._delta = self._create_kvstore(f"{name}.delta", key_shard="term")

    # -- build ---------------------------------------------------------------

    def _build_long_lists(self, staged: list[_StagedDocument]) -> None:
        term_docs: dict[str, list[int]] = {}
        for document in staged:
            for term in document.term_frequencies:
                term_docs.setdefault(term, []).append(document.doc_id)
        for term, doc_ids in term_docs.items():
            postings = [
                self._make_posting(doc_id, term) for doc_id in sorted(set(doc_ids))
            ]
            if self.blocked_postings:
                payload = encode_blocked_id_postings(
                    postings, with_term_scores=self.stores_term_scores
                )
            else:
                payload = encode_id_postings(
                    postings, with_term_scores=self.stores_term_scores
                )
            self._segments[term] = self._long_lists.write(payload, key=term)
            self.update_stats.long_list_postings_written += len(postings)

    def _make_posting(self, doc_id: int, term: str) -> Posting:
        """Build a long-list posting; overridden by the TermScore variant."""
        del term
        return Posting(doc_id=doc_id)

    # -- size / cache -------------------------------------------------------------

    def long_list_size_bytes(self) -> int:
        return self._long_lists.total_bytes()

    def short_list_size_bytes(self) -> int:
        return self._delta.size_bytes()

    def drop_long_list_cache(self) -> None:
        self._long_lists.drop_from_cache()

    # -- score updates -----------------------------------------------------------

    def _after_score_batch(self, changes: "list[tuple[int, float, float]]") -> None:
        """Score updates touch only the Score table for the ID layout.

        The bulk Score-table pass in :meth:`InvertedIndex.apply_batch` is the
        entire batched update; the ID-ordered long lists and the delta list
        never key on scores, so there is nothing to re-key.  (This applies to
        ID-TermScore as well: term scores are content-derived, not
        score-derived.)
        """

    # -- incremental document changes ----------------------------------------------

    def _after_insert(self, doc_id: int, score: float,
                      previous: "Document | None") -> None:
        terms = self._content_terms(doc_id)
        gone = set() if previous is None else previous.distinct_terms - terms
        entries = sorted(
            [((term, doc_id), (_ADD, self._delta_term_score(doc_id, term)))
             for term in terms]
            + [((term, doc_id), (_REM, 0.0)) for term in gone]
        )
        self._delta.put_many(entries)
        self.update_stats.short_list_postings_written += len(entries)

    def _after_content_update(self, doc_id: int, old_document: Document,
                              new_document: Document) -> None:
        added = new_document.distinct_terms - old_document.distinct_terms
        removed = old_document.distinct_terms - new_document.distinct_terms
        entries = sorted(
            [((term, doc_id), (_ADD, self._delta_term_score(doc_id, term)))
             for term in added]
            + [((term, doc_id), (_REM, 0.0)) for term in removed]
        )
        self._delta.put_many(entries)
        self.update_stats.short_list_postings_written += len(entries)

    def _delta_term_score(self, doc_id: int, term: str) -> float:
        """Per-term score stored with delta postings (0.0 for the plain ID method)."""
        del doc_id, term
        return 0.0

    # -- query -------------------------------------------------------------------

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        """Merge every term's blocks to the end, a doc-id window at a time.

        A window ends at the smallest bound of the terms' current blocks.  It
        resolves every doc id below the bound, then pulls the next block of
        each term whose bound it is, in term order; the bound joins the next
        window.  A posting-at-a-time merge read each block at that point too,
        so list and Score-table pages reach the disk in the same order.
        """
        heap = ResultHeap(k)
        count = len(streams)
        with_scores = self.stores_term_scores
        docs: list[list[int]] = [[] for _ in streams]
        term_scores: list = [[] for _ in streams]
        bounds: list = [None] * count

        def advance(term_index: int) -> None:
            block = next(streams[term_index], None)
            if block is None:
                bounds[term_index] = None
                return
            bounds[term_index], block_docs, block_scores = block
            docs[term_index] += block_docs
            if with_scores:
                term_scores[term_index] += block_scores

        for term_index in range(count):
            advance(term_index)
        while True:
            live = [bound for bound in bounds if bound is not None]
            window_end = min(live) if live else None
            windows: list[list[int]] = []
            score_maps: list = []
            for term_index in range(count):
                term_docs = docs[term_index]
                cut = (len(term_docs) if window_end is None
                       else bisect_left(term_docs, window_end))
                windows.append(term_docs[:cut])
                del term_docs[:cut]
                if with_scores:
                    term_score_list = term_scores[term_index]
                    score_maps.append(dict(zip(windows[-1], term_score_list[:cut])))
                    del term_score_list[:cut]
            self._resolve_window(windows, conjunctive, score_maps, heap, stats)
            if window_end is None:
                break
            for term_index in range(count):
                if bounds[term_index] == window_end:
                    advance(term_index)
        return [QueryResult(entry.doc_id, entry.score) for entry in heap.results()]

    def _resolve_window(self, windows: "list[list[int]]", conjunctive: bool,
                        score_maps: list, heap: ResultHeap,
                        stats: QueryStats) -> None:
        """Score a window's candidates in one ``_live_scores`` batch, doc-id order."""
        if len(windows) == 1:
            ordered = windows[0]
        elif conjunctive:
            if not all(windows):
                return
            ordered = sorted(set(min(windows, key=len)).intersection(*windows))
        else:
            ordered = sorted(set().union(*windows))
        if not ordered:
            return
        stats.candidates += len(ordered)
        stats.score_lookups += len(ordered)
        scores = self._live_scores(ordered)
        offered = [doc_id for doc_id in ordered if scores[doc_id] is not None]
        stats.heap_offers += len(offered)
        ranks = self._result_scores(offered, [scores[doc_id] for doc_id in offered],
                                    score_maps)
        for doc_id, rank in zip(offered, ranks):
            heap.add(doc_id, rank)

    def _result_scores(self, doc_ids: "list[int]", svr_scores: "list[float]",
                       score_maps: "list[dict[int, float]]") -> "list[float]":
        """Final ranking scores of a window's live candidates (SVR only for
        the plain ID method)."""
        del doc_ids, score_maps
        return svr_scores

    def _term_stream(self, term_index: int, term: str,
                     stats: QueryStats) -> "Iterator[tuple[int, list[int], list | None]]":
        """One term's long list with its delta list folded in, block by block.

        Yields ``(bound, doc_ids, term_scores)``: a long block minus the
        postings its delta REMoved or superseded, plus the ADDs from the
        previous block's last doc id up to this block's; ``bound`` is its
        largest doc id.  The ADDs past the list's end come as a last block.
        """
        adds, removed = self._load_delta(term)
        if adds:
            removed = removed | {doc_id for doc_id, _ts in adds}
        return self._folded_blocks(term, adds, removed, stats)

    def _folded_blocks(self, term: str, adds: "list[tuple[int, float]]",
                       removed: "set[int]", stats: QueryStats):
        taken = 0
        for last_doc_id, doc_ids, term_scores in self._iter_long_blocks(term):
            stats.postings_scanned += len(doc_ids)
            end = taken
            while end < len(adds) and adds[end][0] < last_doc_id:
                end += 1
            if end == taken and (not removed or removed.isdisjoint(doc_ids)):
                yield last_doc_id, doc_ids, term_scores
                continue
            if term_scores is None:
                term_scores = [0.0] * len(doc_ids)
            postings = [posting for posting in zip(doc_ids, term_scores)
                        if posting[0] not in removed]
            stats.postings_scanned += end - taken
            postings = sorted(postings + adds[taken:end])
            taken = end
            if postings:
                yield _as_block(postings)
        if taken < len(adds):
            stats.postings_scanned += len(adds) - taken
            yield _as_block(adds[taken:])

    def _iter_long_blocks(self, term: str):
        """Stream the long list as ``(last_doc_id, doc_ids, term_scores)`` blocks."""
        handle = self._segments.get(term)
        if handle is None:
            return
        if self.blocked_postings:
            cached = self._cached_long_postings(
                self._long_lists, handle, term, iter_blocked_id_postings_lazy
            )
            if cached is not None:
                yield from cached
                return
        decode = (iter_blocked_id_postings_lazy if self.blocked_postings
                  else iter_id_postings_lazy)
        reader = LazyBytesReader(self._long_lists.iter_pages(handle))
        yield from self._tag_scan_errors(handle, decode(reader))

    def _load_delta(self, term: str) -> tuple[list[tuple[int, float]], set[int]]:
        adds: list[tuple[int, float]] = []
        removed: set[int] = set()
        for (_term, doc_id), (operation, term_score) in self._delta.prefix_items((term,)):
            if operation == _ADD:
                adds.append((doc_id, term_score))
            else:
                removed.add(doc_id)
        adds.sort()
        return adds, removed


def _as_block(postings: "list[tuple[int, float]]") -> tuple:
    """``(doc_id, term_score)`` pairs in doc-id order as a stream block."""
    return (postings[-1][0], [doc_id for doc_id, _ts in postings],
            [term_score for _doc_id, term_score in postings])
