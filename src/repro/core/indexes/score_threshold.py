"""The Score-Threshold method (§4.3.1, Algorithms 1 and 2).

Two ideas distinguish this method from the Score method:

1. Long inverted lists are ordered by (and store) the document score but are
   **never updated** — the stored score may be stale by up to a threshold.
2. A per-term **short list** receives postings only for documents whose new
   score exceeds ``thresholdValueOf(listScore) = ratio * listScore``; the
   ``ListScore`` table remembers each updated document's list score and
   whether it has short-list postings.

Queries merge the short and long lists in decreasing (possibly stale) score
order and keep scanning past the first k results until no remaining posting's
*latest* score — bounded by ``thresholdValueOf`` of its list score — can still
enter the top-k.  The update/query trade-off is tuned by the threshold ratio.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.errors import InvertedIndexError
from repro.core.indexes.base import InvertedIndex, QueryResult, QueryStats, _StagedDocument
from repro.core.posting import (
    LazyBytesReader,
    ScoredPosting,
    encode_blocked_scored_postings,
    encode_scored_postings,
    iter_blocked_scored_postings_lazy,
    iter_scored_postings_lazy,
)
from repro.core.result_heap import ResultHeap, merge_ranked_streams
from repro.storage.environment import StorageEnvironment
from repro.storage.heap_file import SegmentHandle
from repro.text.documents import Document, DocumentStore

_ADD = "ADD"
_REM = "REM"


class ScoreThresholdIndex(InvertedIndex):
    """The Score-Threshold method.

    Parameters
    ----------
    threshold_ratio:
        The multiplicative threshold ``thresholdValueOf(score) = ratio * score``.
        Must be at least 1.0; larger ratios mean fewer short-list updates but
        longer query scans (§4.3.1).
    """

    method_name = "score_threshold"
    stores_term_scores = False

    def __init__(self, env: StorageEnvironment, documents: DocumentStore,
                 name: str = "svr", threshold_ratio: float = 11.24,
                 blocked_postings: "bool | None" = None,
                 list_cache_pages: "int | None" = None) -> None:
        super().__init__(env, documents, name=name,
                         blocked_postings=blocked_postings,
                         list_cache_pages=list_cache_pages)
        if threshold_ratio < 1.0:
            raise InvertedIndexError(
                f"threshold_ratio must be >= 1.0, got {threshold_ratio}"
            )
        self.threshold_ratio = float(threshold_ratio)
        self._long_lists = self._create_heapfile(f"{name}.long")
        self._segments: dict[str, SegmentHandle] = {}
        # Short list key: (term, -list_score, doc_id) -> (operation, unused term score).
        self._short = self._create_kvstore(f"{name}.short", key_shard="term")
        # ListScore table: doc_id -> (list_score, in_short_list).
        self._list_score = self._create_kvstore(f"{name}.listscore", key_shard="doc")

    # -- threshold ---------------------------------------------------------------

    def threshold_value_of(self, score: float) -> float:
        """``thresholdValueOf(score)`` — the largest latest score a document whose
        list score is ``score`` can have without owning short-list postings."""
        return self.threshold_ratio * score

    # -- build --------------------------------------------------------------------

    def _build_long_lists(self, staged: list[_StagedDocument]) -> None:
        term_docs: dict[str, list[tuple[float, int]]] = {}
        for document in staged:
            for term in document.term_frequencies:
                term_docs.setdefault(term, []).append((document.score, document.doc_id))
        for term, entries in term_docs.items():
            entries.sort(key=lambda entry: (-entry[0], entry[1]))
            postings = [
                ScoredPosting(doc_id=doc_id, score=score) for score, doc_id in entries
            ]
            if self.blocked_postings:
                payload = encode_blocked_scored_postings(postings, with_term_scores=False)
            else:
                payload = encode_scored_postings(postings, with_term_scores=False)
            self._segments[term] = self._long_lists.write(payload, key=term)
            self.update_stats.long_list_postings_written += len(postings)

    # -- size / cache ----------------------------------------------------------------

    def long_list_size_bytes(self) -> int:
        return self._long_lists.total_bytes()

    def short_list_size_bytes(self) -> int:
        return self._short.size_bytes()

    def drop_long_list_cache(self) -> None:
        self._long_lists.drop_from_cache()

    # -- score updates (Algorithm 1) ---------------------------------------------------

    def _after_score_update(self, doc_id: int, old_score: float, new_score: float) -> None:
        entry = self._list_score.get(doc_id, default=None)
        if entry is not None:
            list_score, in_short_list = entry
        else:
            list_score, in_short_list = old_score, False
            self._list_score.put(doc_id, (old_score, False))
        if new_score <= self.threshold_value_of(list_score):
            return
        for term in self._content_terms(doc_id):
            if in_short_list:
                self._short.delete_if_present((term, -list_score, doc_id))
            self._short.put((term, -new_score, doc_id), (_ADD, 0.0))
            self.update_stats.short_list_postings_written += 1
        self._list_score.put(doc_id, (new_score, True))
        self.update_stats.short_list_updates += 1

    def _after_score_batch(self, changes: list[tuple[int, float, float]]) -> None:
        """Replay the threshold decisions in order, flush the writes in bulk.

        The list state is the (stale) list score itself; see
        :meth:`InvertedIndex._batch_promote_short_lists` for the shared
        overlay-replay algorithm.
        """
        self._batch_promote_short_lists(
            changes, self._list_score, self._short,
            state_of=lambda score: score,
            payload_of=lambda doc_id, term: (_ADD, 0.0),
        )

    # -- document changes (Appendix A applied to this layout) -----------------------------

    def _after_insert(self, doc_id: int, score: float,
                      previous: "Document | None") -> None:
        del previous  # the old terms' long postings are not filtered yet
        entries = sorted(
            ((term, -score, doc_id), (_ADD, 0.0))
            for term in self._content_terms(doc_id)
        )
        self._short.put_many(entries)
        self.update_stats.short_list_postings_written += len(entries)
        self._list_score.put(doc_id, (score, True))

    def _after_content_update(self, doc_id: int, old_document: Document,
                              new_document: Document) -> None:
        entry = self._list_score.get(doc_id, default=None)
        list_score = entry[0] if entry is not None else self.score_table.get(doc_id)
        added = new_document.distinct_terms - old_document.distinct_terms
        removed = old_document.distinct_terms - new_document.distinct_terms
        entries = sorted(
            [((term, -list_score, doc_id), (_ADD, 0.0)) for term in added]
            + [((term, -list_score, doc_id), (_REM, 0.0)) for term in removed]
        )
        self._short.put_many(entries)
        self.update_stats.short_list_postings_written += len(entries)

    # -- query (Algorithm 2) ----------------------------------------------------------------

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        required = len(terms) if conjunctive else 1
        heap = ResultHeap(k)
        merged = merge_ranked_streams(streams)
        seen_terms: dict[int, set[int]] = {}
        seen_short: dict[int, bool] = {}
        processed: set[int] = set()
        # Documents whose long postings are stale (see _long_postings_stale).
        stale: set[int] = set()
        for neg_score, doc_id, term_index, is_short in merged:
            list_score = -neg_score
            # Early termination: every remaining posting has list score <= the
            # current one, so its latest score is bounded by thresholdValueOf of
            # the current list score (Lemma 1.2/1.3).  Once that bound cannot
            # displace the heap floor, the top-k is final.
            if heap.is_full and self.threshold_value_of(list_score) < heap.min_score():
                stats.stopped_early = True
                break
            if doc_id in processed or (doc_id in stale and not is_short):
                continue
            terms_seen = seen_terms.setdefault(doc_id, set())
            terms_seen.add(term_index)
            seen_short[doc_id] = seen_short.get(doc_id, False) or is_short
            if len(terms_seen) < required:
                continue
            if not seen_short[doc_id] and self._long_postings_stale(doc_id):
                # Forget the stale postings; the document completes from its
                # short postings when they arrive, further down the lists.
                stale.add(doc_id)
                del seen_terms[doc_id], seen_short[doc_id]
                continue
            processed.add(doc_id)
            stats.candidates += 1
            current = self._live_score(doc_id)
            stats.score_lookups += 1
            if current is not None:
                stats.heap_offers += 1
                heap.add(doc_id, current)
        return [QueryResult(entry.doc_id, entry.score) for entry in heap.results()]

    def _long_postings_stale(self, doc_id: int) -> bool:
        """Whether ListScore says the document lives in the short lists.

        Its long postings are then stale — the document was deleted and
        re-inserted with a lower score — and the short postings represent it.
        """
        entry = self._list_score.get(doc_id, default=None)
        return entry is not None and entry[1]

    # -- per-term stream construction ------------------------------------------------------

    def _term_stream(self, term_index: int, term: str,
                     stats: QueryStats) -> Iterator[tuple[float, int, int, bool]]:
        """Merge the short and long lists of one term in decreasing score order.

        Yields ``(-list_score, doc_id, term_index, is_short)`` so that tuples
        from different terms interleave correctly inside ``heapq.merge``.
        """
        short_adds, removed = self._load_short(term)
        long_postings = self._iter_long(term, stats)

        def short_iter() -> Iterator[tuple[float, int, int, bool]]:
            for list_score, doc_id in short_adds:
                stats.postings_scanned += 1
                yield -list_score, doc_id, term_index, True

        def long_iter() -> Iterator[tuple[float, int, int, bool]]:
            for doc_id, score, _term_score in long_postings:
                if doc_id in removed:
                    continue
                yield -score, doc_id, term_index, False

        return heapq.merge(short_iter(), long_iter())

    def _iter_long(self, term: str,
                   stats: QueryStats) -> "Iterator[tuple[int, float, float]]":
        """Stream ``(doc_id, score, term_score)`` tuples from the long list."""
        handle = self._segments.get(term)
        if handle is None:
            return
        if self.blocked_postings:
            cached = self._cached_long_postings(
                self._long_lists, handle, term, iter_blocked_scored_postings_lazy
            )
            if cached is not None:
                for posting in cached:
                    stats.postings_scanned += 1
                    yield posting
                return
        reader = LazyBytesReader(self._long_lists.iter_pages(handle))
        if self.blocked_postings:
            postings = iter_blocked_scored_postings_lazy(reader)
        else:
            postings = iter_scored_postings_lazy(reader)
        for posting in self._tag_scan_errors(handle, postings):
            stats.postings_scanned += 1
            yield posting

    def _load_short(self, term: str) -> tuple[list[tuple[float, int]], set[int]]:
        """Load one term's short list: (list_score, doc_id) adds plus removed ids."""
        adds: list[tuple[float, int]] = []
        removed: set[int] = set()
        for (_term, neg_score, doc_id), (operation, _ts) in self._short.prefix_items((term,)):
            if operation == _ADD:
                adds.append((-neg_score, doc_id))
            else:
                removed.add(doc_id)
        adds.sort(key=lambda entry: (-entry[0], entry[1]))
        return adds, removed
