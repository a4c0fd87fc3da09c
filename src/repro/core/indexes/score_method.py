"""The Score method (§4.2.2): score-ordered inverted lists maintained in place.

Each term's inverted list is kept in a clustered B+-tree ordered by decreasing
document score (key ``(term, -score, doc_id)``), which is the organisation
required by classic top-k algorithms: queries merge the lists in score order
and stop as soon as the top-k cannot change.

The price is update cost: when a document's score changes, its posting must be
re-keyed in the list of *every* distinct term the document contains — hundreds
to thousands of random B+-tree probes per update.  This is the behaviour the
paper measures as orders of magnitude slower than every other method (Figure 7).
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.core.indexes.base import InvertedIndex, QueryResult, QueryStats, _StagedDocument
from repro.core.posting import build_rekey_operations
from repro.core.result_heap import ResultHeap
from repro.storage.environment import StorageEnvironment
from repro.text.documents import Document, DocumentStore


class ScoreIndex(InvertedIndex):
    """The Score method: clustered score-ordered lists, updated on every score change."""

    method_name = "score"
    stores_term_scores = False

    def __init__(self, env: StorageEnvironment, documents: DocumentStore,
                 name: str = "svr",
                 list_cache_pages: "int | None" = None) -> None:
        # The clustered score lists live in a B+-tree, not heap-file payloads,
        # so the hot-term cache does not apply; the option is accepted for
        # constructor uniformity across methods.
        super().__init__(env, documents, name=name,
                         list_cache_pages=list_cache_pages)
        # Key: (term, -score, doc_id) -> None.  Negating the score makes the
        # B+-tree's ascending key order correspond to descending score order.
        self._lists = self._create_kvstore(f"{name}.scorelists", key_shard="term",
                                           key_codec="sfu", value_codec="none")

    # -- build ---------------------------------------------------------------

    def _build_long_lists(self, staged: list[_StagedDocument]) -> None:
        for document in staged:
            for term in document.term_frequencies:
                self._lists.put((term, -document.score, document.doc_id), None)
                self.update_stats.long_list_postings_written += 1

    # -- size / cache ---------------------------------------------------------

    def long_list_size_bytes(self) -> int:
        return self._lists.size_bytes()

    def drop_long_list_cache(self) -> None:
        # The enumeration is charged (accounted=True): establishing the
        # paper's cold cache walks the clustered list tree exactly like
        # BerkeleyDB would, and that walk is part of the modelled I/O the
        # experiments start from.  Under sharding each shard's pool drops its
        # own partition of the tree, with the same accounted walk.
        self._drop_store_pages(self._lists, accounted=True)

    # -- updates ----------------------------------------------------------------

    def _after_score_update(self, doc_id: int, old_score: float, new_score: float) -> None:
        if old_score == new_score or self._deleted_among([doc_id]):
            return
        # Sorted, so the list tree's shape does not follow hash order.
        terms = sorted(self._content_terms(doc_id))
        self._lists.rekey(terms, (-old_score, doc_id), (-new_score, doc_id))
        self.update_stats.short_list_postings_written += len(terms)
        self.update_stats.short_list_updates += 1

    def _after_score_batch(self, changes: list[tuple[int, float, float]]) -> None:
        """Re-key every touched posting through two sorted bulk passes.

        Updates are coalesced per document (first old score to final new
        score): the intermediate delete+insert pairs a sequential replay would
        perform cancel out, so the final clustered-list contents are identical
        while only the surviving keys are touched.  The sorted delete and
        insert batches then descend the list tree once per leaf run instead of
        once per posting — the per-update tree-probe storm Figure 7 measures
        becomes a pair of near-sequential passes.
        """
        deleted = self._deleted_among(sorted({doc_id for doc_id, _old, _new in changes}))
        if deleted:
            changes = [change for change in changes if change[0] not in deleted]
        terms_of: dict[int, set[str]] = {}

        def cached_terms(doc_id: int) -> set[str]:
            terms = terms_of.get(doc_id)
            if terms is None:
                terms = terms_of[doc_id] = self._content_terms(doc_id)
            return terms

        first_old: dict[int, float] = {}
        final: dict[int, float] = {}
        for doc_id, old_score, new_score in changes:
            first_old.setdefault(doc_id, old_score)
            final[doc_id] = new_score
            # Stats count the *logical* per-update work, exactly as the
            # sequential loop would, so the two modes report identically even
            # though coalescing writes fewer physical postings.
            if old_score != new_score:
                self.update_stats.short_list_postings_written += len(cached_terms(doc_id))
                self.update_stats.short_list_updates += 1
        coalesced = [
            (doc_id, first_old[doc_id], new_score)
            for doc_id, new_score in final.items()
        ]
        self._lists.rekey_batch(build_rekey_operations(coalesced, cached_terms))

    def _deleted_among(self, doc_ids: "list[int]") -> "set[int]":
        """The deleted documents among ``doc_ids``.

        A deleted document's entries went with the delete (see
        :meth:`_after_delete`); re-keying them on a score update would file
        them again under the new score.  The deleted table is probed only
        when it holds a document at all, so updates to a collection without
        deletes read no extra page.
        """
        if not len(self.deleted_table):
            return set()
        return set(self.deleted_table.get_many(doc_ids))

    def _after_insert(self, doc_id: int, score: float,
                      previous: "Document | None") -> None:
        del previous  # its entries went with the delete
        keys = sorted((term, -score, doc_id) for term in self._content_terms(doc_id))
        self._lists.put_many((key, None) for key in keys)
        self.update_stats.long_list_postings_written += len(keys)

    def _after_delete(self, doc_id: int) -> None:
        # The list entries are keyed by score, so they must go now: a later
        # re-insert under another score or other terms would leave them
        # ranking the document by its deleted state.
        score = self.score_table.get(doc_id)
        self._lists.delete_many(
            sorted((term, -score, doc_id) for term in self._content_terms(doc_id)),
            ignore_missing=True,
        )

    def _after_content_update(self, doc_id: int, old_document: Document,
                              new_document: Document) -> None:
        score = self.score_table.get(doc_id)
        removed = sorted(
            (term, -score, doc_id)
            for term in old_document.distinct_terms - new_document.distinct_terms
        )
        added = sorted(
            (term, -score, doc_id)
            for term in new_document.distinct_terms - old_document.distinct_terms
        )
        self._lists.delete_many(removed, ignore_missing=True)
        self._lists.put_many((key, None) for key in added)
        self.update_stats.long_list_postings_written += len(added)

    # -- query --------------------------------------------------------------------

    def _term_stream(self, term_index: int, term: str,
                     stats: QueryStats) -> Iterator[tuple[float, int, int]]:
        for (neg_score, doc_id), _ in self._lists.suffix_items((term,)):
            stats.postings_scanned += 1
            yield neg_score, doc_id, term_index

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        required = len(terms) if conjunctive else 1
        heap = ResultHeap(k)
        merged = heapq.merge(*streams)
        current: tuple[float, int] | None = None
        seen: set[int] = set()
        stopped = False
        for neg_score, doc_id, index in merged:
            key = (neg_score, doc_id)
            if key != current:
                if current is not None:
                    self._emit_candidate(current, seen, required, heap, stats)
                current = key
                seen = set()
                # Early termination: every later posting has a strictly lower
                # score than the current heap floor, so the top-k is final.
                if heap.is_full and -neg_score < heap.min_score():
                    stats.stopped_early = True
                    stopped = True
                    current = None
                    break
            seen.add(index)
        if not stopped and current is not None:
            self._emit_candidate(current, seen, required, heap, stats)
        return heap.results()

    def _emit_candidate(self, key: tuple[float, int], seen: set[int], required: int,
                        heap: ResultHeap, stats: QueryStats) -> None:
        neg_score, doc_id = key
        if len(seen) < required:
            return
        stats.candidates += 1
        if self.deleted_table.contains(doc_id):
            return
        stats.heap_offers += 1
        heap.add(doc_id, -neg_score)
