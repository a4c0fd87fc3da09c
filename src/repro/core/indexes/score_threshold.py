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
The lists are read a block at a time through the shared cursor
(:mod:`repro.core.indexes.cursor`), but postings are still processed one at
a time, in list order, with the stopping test before each.
"""

from __future__ import annotations

import heapq

from repro.errors import InvertedIndexError
from repro.core.indexes.base import QueryResult, QueryStats, _StagedDocument
from repro.core.indexes.cursor import (
    LongListIndex,
    run_windows,
    scored_position,
)
from repro.core.result_heap import ResultHeap
from repro.storage.environment import StorageEnvironment
from repro.text.documents import DocumentStore


class ScoreThresholdIndex(LongListIndex):
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
    list_kind = "scored"
    short_key_codec = "sfu"

    def __init__(self, env: StorageEnvironment, documents: DocumentStore,
                 name: str = "svr", threshold_ratio: float = 11.24,
                 list_cache_pages: "int | None" = None) -> None:
        super().__init__(env, documents, name=name,
                         list_cache_pages=list_cache_pages)
        if threshold_ratio < 1.0:
            raise InvertedIndexError(
                f"threshold_ratio must be >= 1.0, got {threshold_ratio}"
            )
        self.threshold_ratio = float(threshold_ratio)
        # Short list key (term, -list_score, doc_id); ListScore table:
        # doc_id -> (list_score, in_short_list).
        self._bookkeeping = self._create_kvstore(f"{name}.listscore", key_shard="doc",
                                                 key_codec="i", value_codec="state_f")

    # -- threshold ---------------------------------------------------------------

    def _state_of(self, score: float) -> float:
        return score

    def threshold_value_of(self, score: float) -> float:
        """``thresholdValueOf(score)`` — the largest latest score a document whose
        list score is ``score`` can have without owning short-list postings."""
        return self.threshold_ratio * score

    # -- build --------------------------------------------------------------------

    def _long_list_columns(self, staged: list[_StagedDocument]) -> dict[str, tuple]:
        ordered = sorted(staged, key=lambda document: (-document.score, document.doc_id))
        score_of = {document.doc_id: document.score for document in staged}.__getitem__
        doc_ids, _term_scores = self._term_columns(ordered)
        return {term: (ids, list(map(score_of, ids))) for term, ids in doc_ids.items()}

    # -- query (Algorithm 2) ----------------------------------------------------------------

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        """Merge every term's short and long blocks in list-score order.

        A window runs up to the first block end and is processed a posting
        at a time in ``(-list_score, doc_id, term, long before short)``
        order.  A candidate's Score lookup happens when it completes: the
        stop test before the next posting depends on it, and a batch would
        reorder the Score-table reads against the list reads.
        """
        required = len(terms) if conjunctive else 1
        heap = ResultHeap(k)
        seen_terms: dict[int, set[int]] = {}
        processed: set[int] = set()

        def on_window(window: list, _next_key) -> "list[int] | None":
            consumed = [0] * len(window)
            merged = heapq.merge(*(_postings(stream, slices)
                                   for stream, slices in enumerate(window) if slices))
            for neg_score, doc_id, stream in merged:
                # Early termination: every remaining posting has list score <=
                # the current one, so its latest score is bounded by
                # thresholdValueOf of the current list score (Lemma 1.2/1.3).
                # Once that bound cannot displace the heap floor, the top-k is
                # final.
                if heap.is_full and self.threshold_value_of(-neg_score) < heap.min_score():
                    return [sum(len(piece[1]) for piece in slices) - consumed[index]
                            for index, slices in enumerate(window)]
                consumed[stream] += 1
                if doc_id in processed:
                    continue
                terms_seen = seen_terms.setdefault(doc_id, set())
                terms_seen.add(stream // 2)
                if len(terms_seen) < required:
                    continue
                processed.add(doc_id)
                stats.candidates += 1
                current = self._live_score(doc_id)
                stats.score_lookups += 1
                if current is not None:
                    stats.heap_offers += 1
                    heap.add(doc_id, current)
            return None

        run_windows(streams, scored_position, on_window, stats, inclusive=True)
        return heap.results()


def _postings(stream: int, slices: list):
    """One stream's window postings as ``(-list_score, doc_id, stream)``."""
    for _bound, doc_ids, scores, _short in slices:
        for doc_id, score in zip(doc_ids, scores):
            yield -score, doc_id, stream
