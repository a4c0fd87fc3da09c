"""Bounded top-k result heap and the k-way gather merge that feeds it.

Every query algorithm in the paper keeps "a result heap ... to keep track of
the top-k results during the scan".  :class:`ResultHeap` is that structure: it
keeps at most ``k`` (document, score) entries, deduplicates by document id
(keeping the best score), and exposes the current k-th best score, which the
early-termination conditions of Algorithms 2 and 3 compare against.

:func:`merge_ranked_streams` is the gather side of the scan: every method's
query loop k-way merges its per-term posting streams through it and offers
the merged candidates into the heap.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import QueryError


def merge_ranked_streams(streams: "Iterable[Iterable[Any]]") -> Iterator[Any]:
    """K-way merge of rank-ordered per-term streams (the query gather step).

    Each stream must yield tuples in ascending tuple order (the methods encode
    their rank as the leading component: ``-score``, ``-chunk_id`` or
    ``doc_id``), so the merged sequence interleaves every term's postings in
    global rank order.  Streams are consumed lazily — early termination in the
    caller stops the merge without draining them.
    """
    return heapq.merge(*streams)


@dataclass(frozen=True)
class HeapEntry:
    """A (document, score) pair held by the result heap."""

    doc_id: int
    score: float


class ResultHeap:
    """Keeps the best ``k`` documents seen so far, ordered by score.

    Ties are broken towards smaller document ids so query results are
    deterministic, which the equivalence tests between index methods rely on.

    Parameters
    ----------
    k:
        Maximum number of results to retain.  Must be positive.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        self.k = k
        # Min-heap of (score, -doc_id) so the worst retained entry is at the top;
        # -doc_id makes larger doc ids evict first on score ties.
        self._heap: list[tuple[float, int]] = []
        self._scores: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._scores

    @property
    def is_full(self) -> bool:
        """Whether the heap already holds ``k`` documents."""
        return len(self._scores) >= self.k

    def add(self, doc_id: int, score: float) -> bool:
        """Offer a (document, score) pair; return whether it is currently retained.

        Re-offering a document keeps the maximum of its scores.  When the heap
        is full, a new document displaces the current worst entry only if it
        ranks strictly better under (score, then smaller doc id).
        """
        existing = self._scores.get(doc_id)
        if existing is not None:
            if score > existing:
                self._scores[doc_id] = score
                self._rebuild()
            return True
        if len(self._scores) < self.k:
            self._scores[doc_id] = score
            heapq.heappush(self._heap, (score, -doc_id))
            return True
        worst_score, neg_worst_doc = self._heap[0]
        worst_doc = -neg_worst_doc
        if (score, -doc_id) <= (worst_score, neg_worst_doc):
            return False
        heapq.heapreplace(self._heap, (score, -doc_id))
        del self._scores[worst_doc]
        self._scores[doc_id] = score
        return True

    def min_score(self) -> float:
        """Score of the worst retained document; ``-inf`` until the heap is full.

        This is ``resultHeap.minScore(k)`` in Algorithm 3: the value future
        candidates must beat.  While fewer than ``k`` documents are retained,
        any candidate can still enter, hence ``-inf``.
        """
        if len(self._scores) < self.k:
            return -math.inf
        return self._heap[0][0]

    def would_accept(self, score: float) -> bool:
        """Whether a new document with ``score`` could enter the top-k."""
        return score > self.min_score() or not self.is_full

    def results(self) -> list[HeapEntry]:
        """Retained entries, best first (score descending, then doc id ascending)."""
        ordered = sorted(self._scores.items(), key=lambda item: (-item[1], item[0]))
        return [HeapEntry(doc_id=doc_id, score=score) for doc_id, score in ordered]

    def get(self, doc_id: int) -> float | None:
        """Score currently retained for ``doc_id``, or ``None``."""
        return self._scores.get(doc_id)

    def _rebuild(self) -> None:
        self._heap = [(score, -doc_id) for doc_id, score in self._scores.items()]
        heapq.heapify(self._heap)
