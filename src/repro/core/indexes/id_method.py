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

from itertools import chain
from operator import attrgetter

from repro.core.indexes.base import QueryResult, QueryStats, _StagedDocument
from repro.core.indexes.cursor import (
    LongListIndex,
    id_position,
    run_windows,
    window_values,
)
from repro.core.result_heap import ResultHeap


class IDIndex(LongListIndex):
    """The ID method: ID-ordered long lists plus a Score table."""

    method_name = "id"
    stores_term_scores = False
    list_kind = "id"
    short_list_name = "delta"

    # -- build ---------------------------------------------------------------

    def _long_list_columns(self, staged: list[_StagedDocument]) -> dict[str, tuple]:
        doc_ids, term_scores = self._term_columns(sorted(staged, key=attrgetter("doc_id")))
        return {term: (ids, None if term_scores is None else term_scores[term])
                for term, ids in doc_ids.items()}

    # -- query -------------------------------------------------------------------

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        """Merge every term's blocks to the end, a doc-id window at a time:
        a window's candidates come out of set operations and are scored in
        one batch, in doc-id order."""
        heap = ResultHeap(k)

        def on_window(window: list, _next_key) -> None:
            windows = [slices[0][1] if len(slices) == 1
                       else list(chain.from_iterable(piece[1] for piece in slices))
                       for slices in window]
            if len(windows) == 1:
                ordered = windows[0]
            elif conjunctive:
                if not all(windows):
                    return None
                ordered = sorted(set(min(windows, key=len)).intersection(*windows))
            else:
                ordered = sorted(set().union(*windows))
            term_scores = None
            if self.stores_term_scores:
                # Summed in query-term order; a term without the document
                # adds 0.0, which leaves the sum bit-identical.
                score_maps = [window_values(slices) for slices in window]
                term_scores = lambda doc_ids: zip(*(  # noqa: E731
                    [scores.get(doc_id, 0.0) for doc_id in doc_ids]
                    for scores in score_maps))
            self._resolve_batch(ordered, heap, stats, term_scores)
            return None

        run_windows(streams, id_position, on_window, stats)
        return heap.results()
