"""The ID method (§4.2.1): traditional ID-ordered inverted lists.

Each term's long inverted list holds the ids of the documents containing the
term, in increasing id order, delta-encoded and stored as an immutable binary
object.  A separate Score table (owned by the base class) maps document ids to
their current scores.

* **Score updates** only touch the Score table — the cheapest possible update.
* **Queries** must merge the *entire* long list of every query term, because a
  document anywhere in the lists may hold the highest current score.  This is
  the full-scan behaviour the paper measures as the ID method's weakness.
* **Incremental document changes** are handled with a small ID-ordered delta
  list per term (``(term, doc_id) -> ADD | REM``), merged with the long list at
  query time; this mirrors Appendix A applied to the ID layout.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.indexes.base import InvertedIndex, QueryResult, QueryStats, _StagedDocument, _TermPlan
from repro.core.posting import (
    LazyBytesReader,
    Posting,
    encode_blocked_id_postings,
    encode_id_postings,
    iter_blocked_id_postings_lazy,
    iter_id_postings_lazy,
)
from repro.core.result_heap import ResultHeap, merge_ranked_streams
from repro.storage.environment import StorageEnvironment
from repro.storage.heap_file import SegmentHandle
from repro.text.documents import Document, DocumentStore

#: Marker values stored in the delta list.
_ADD = "ADD"
_REM = "REM"


def merge_streams_by_doc_id(
    streams: "list[Iterator[tuple[int, float]]]",
) -> Iterator[tuple[int, dict[int, tuple[int, float]]]]:
    """Merge ID-ordered ``(doc_id, term_score)`` streams, grouping by document id.

    Yields ``(doc_id, {stream_index: posting})`` in increasing document-id
    order; the mapping records which streams contained the document (and with
    which posting tuple, so term scores survive the merge).
    """
    def tag(index: int, stream: "Iterator[tuple[int, float]]") -> Iterator[tuple[int, int, tuple[int, float]]]:
        for posting in stream:
            yield posting[0], index, posting

    merged = merge_ranked_streams(
        tag(index, stream) for index, stream in enumerate(streams)
    )
    current_doc: int | None = None
    found: dict[int, tuple[int, float]] = {}
    for doc_id, index, posting in merged:
        if current_doc is None:
            current_doc = doc_id
        if doc_id != current_doc:
            yield current_doc, found
            current_doc = doc_id
            found = {}
        found[index] = posting
    if current_doc is not None:
        yield current_doc, found


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

    def _after_insert(self, doc_id: int, score: float) -> None:
        entries = sorted(
            ((term, doc_id), (_ADD, self._delta_term_score(doc_id, term)))
            for term in self._content_terms(doc_id)
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

    def _make_term_plan(self, term: str) -> _TermPlan:
        return _TermPlan(term, lambda index, stats: self._term_stream(term, stats))

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        heap = ResultHeap(k)
        required = len(terms) if conjunctive else 1
        for doc_id, found in merge_streams_by_doc_id(streams):
            if len(found) < required:
                continue
            stats.candidates += 1
            score = self._live_score(doc_id)
            stats.score_lookups += 1
            if score is None:
                continue
            stats.heap_offers += 1
            heap.add(doc_id, self._result_score(doc_id, score, found, terms))
        return [QueryResult(entry.doc_id, entry.score) for entry in heap.results()]

    def _result_score(self, doc_id: int, svr_score: float,
                      found: dict[int, tuple[int, float]], terms: list[str]) -> float:
        """Final ranking score for a candidate (SVR only for the plain ID method)."""
        del doc_id, found, terms
        return svr_score

    def _term_stream(self, term: str, stats: QueryStats) -> "Iterator[tuple[int, float]]":
        """Long-list postings merged with the delta list for one term, ID order.

        Postings flow through the scan as plain ``(doc_id, term_score)`` tuples
        (the zero-copy decoders yield them directly; no per-posting objects).
        """
        adds, removed = self._load_delta(term)
        long_postings = self._iter_long_postings(term, stats)
        return self._merge_with_delta(long_postings, adds, removed, stats)

    def _iter_long_postings(self, term: str,
                            stats: QueryStats) -> "Iterator[tuple[int, float]]":
        handle = self._segments.get(term)
        if handle is None:
            return
        if self.blocked_postings:
            cached = self._cached_long_postings(
                self._long_lists, handle, term, iter_blocked_id_postings_lazy
            )
            if cached is not None:
                for posting in cached:
                    stats.postings_scanned += 1
                    yield posting
                return
        reader = LazyBytesReader(self._long_lists.iter_pages(handle))
        if self.blocked_postings:
            postings = iter_blocked_id_postings_lazy(reader)
        else:
            postings = iter_id_postings_lazy(reader)
        for posting in self._tag_scan_errors(handle, postings):
            stats.postings_scanned += 1
            yield posting

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

    @staticmethod
    def _merge_with_delta(long_postings: "Iterable[tuple[int, float]]",
                          adds: list[tuple[int, float]], removed: set[int],
                          stats: QueryStats) -> "Iterator[tuple[int, float]]":
        add_index = 0
        seen_add_ids = {doc_id for doc_id, _ts in adds}
        for posting in long_postings:
            doc_id = posting[0]
            while add_index < len(adds) and adds[add_index][0] < doc_id:
                stats.postings_scanned += 1
                yield adds[add_index]
                add_index += 1
            if doc_id in removed:
                continue
            if doc_id in seen_add_ids:
                # The delta posting supersedes the long-list posting (content update).
                continue
            yield posting
        while add_index < len(adds):
            stats.postings_scanned += 1
            yield adds[add_index]
            add_index += 1
