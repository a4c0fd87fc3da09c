"""The Chunk-TermScore method (§4.3.3, Algorithm 3).

Extends the Chunk method to rank by the combined function
``f(d) = svr(d) + term_weight * sum_i termscore(t_i, d)`` and to support both
conjunctive and disjunctive queries:

* long and short-list postings additionally carry the normalised-TF term score;
* each term has a small ID-ordered **fancy list** [Long & Suel 2003] holding
  the postings with the highest term scores for that term.

Query processing first merges the fancy lists: documents appearing in *all* of
them are scored exactly and added to the result heap up front, documents
appearing in only some go to the ``remainList``.  The chunk-ordered merge then
proceeds as in the Chunk method, removing encountered documents from the
remainList; at each chunk boundary the remainList is pruned against an upper
bound (actual current SVR score plus known fancy term scores plus the minimum
fancy score of the other terms) and the scan stops once the remainList is
empty and no remaining document's combined upper bound can enter the top-k.
"""

from __future__ import annotations

from repro.core.indexes.base import QueryResult, QueryStats
from repro.core.indexes.chunk import ChunkIndex, _ChunkCandidates
from repro.core.result_heap import ResultHeap
from repro.storage.environment import StorageEnvironment
from repro.text.documents import Document, DocumentStore


class ChunkTermScoreIndex(ChunkIndex):
    """The Chunk method extended with term scores and fancy lists.

    Parameters
    ----------
    term_weight:
        Weight of the term-score sum in the combined scoring function.
    fancy_size:
        Number of highest-term-score postings kept in each term's fancy list.
    """

    method_name = "chunk_termscore"
    stores_term_scores = True
    #: The fancy floors are set only while the long lists are built.
    long_list_state = ("_segments", "_fancy_floor_by_term")

    def __init__(self, env: StorageEnvironment, documents: DocumentStore,
                 name: str = "svr", chunk_ratio: float = 6.12, min_chunk_size: int = 100,
                 chunk_strategy=None, term_weight: float = 1.0,
                 fancy_size: int = 50,
                 list_cache_pages: "int | None" = None) -> None:
        super().__init__(env, documents, name=name, chunk_ratio=chunk_ratio,
                         min_chunk_size=min_chunk_size, chunk_strategy=chunk_strategy,
                         list_cache_pages=list_cache_pages)
        self.term_weight = float(term_weight)
        self.fancy_size = int(fancy_size)
        # Fancy lists: (term, doc_id) -> term_score; small and cache-resident.
        # Entries are materialised only for terms with more than ``fancy_size``
        # postings — for rarer terms a fancy list cannot prune anything, so
        # only the per-term score ceiling below is kept.
        self._fancy = self._create_kvstore(f"{name}.fancy", key_shard="term",
                                           key_codec="su", value_codec="f64")
        # Per-term upper bound on the term score of any document *not* present
        # in the term's fancy list (the pruning bound of Algorithm 3).
        self._fancy_floor_by_term: dict[str, float] = {}

    # -- build ------------------------------------------------------------------

    def _write_long_lists(self, terms, columns: dict[str, tuple]) -> None:
        """Write the long lists, then each term's fancy list from its runs."""
        super()._write_long_lists(terms, columns)
        for term in terms:
            (runs,) = columns[term]
            entries = [entry for _chunk_id, doc_ids, term_scores in runs
                       for entry in zip(term_scores, doc_ids)]
            if len(entries) <= self.fancy_size:
                # A fancy list that would contain every posting of the term
                # cannot prune anything; keep only the score ceiling.
                self._fancy_floor_by_term[term] = max(score for score, _ in entries)
                continue
            entries.sort(key=lambda entry: (-entry[0], entry[1]))
            kept = entries[: self.fancy_size]
            for term_score, doc_id in kept:
                self._fancy.put((term, doc_id), term_score)
            self._fancy_floor_by_term[term] = kept[-1][0]

    # -- fancy lists under document changes -----------------------------------------

    def _refresh_fancy(self, doc_id: int, dropped: "set[str]", added: "set[str]") -> None:
        """Drop ``doc_id``'s fancy entries for ``dropped`` and add those of
        ``added`` whose term score exceeds the term's floor.

        The pruning bound relies on every document absent from a term's
        fancy list having a term score at most the floor; adding a posting
        whenever its score exceeds the floor keeps that without ever raising
        the floor.
        """
        self._fancy.delete_many(sorted((term, doc_id) for term in dropped),
                                ignore_missing=True)
        additions = []
        for term in added:
            term_score = self._current_term_score(doc_id, term)
            if term_score > self._fancy_floor_by_term.get(term, 0.0):
                additions.append(((term, doc_id), term_score))
        self._fancy.put_many(sorted(additions))

    def _after_insert(self, doc_id: int, score: float,
                      previous: "Document | None") -> None:
        super()._after_insert(doc_id, score, previous)
        # A re-insert's old fancy entries carry the old content's term scores.
        self._refresh_fancy(doc_id, set() if previous is None else previous.distinct_terms,
                            self._content_terms(doc_id))

    def _after_content_update(self, doc_id: int, old_document: Document,
                              new_document: Document) -> None:
        super()._after_content_update(doc_id, old_document, new_document)
        # The new length changes the term score of every kept term too.
        self._refresh_fancy(doc_id, old_document.distinct_terms,
                            new_document.distinct_terms)

    # -- query (Algorithm 3) ----------------------------------------------------------------

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        assert self.chunk_map is not None
        processed: set[int] = set()

        # Phase 1: merge the fancy lists (Algorithm 3, lines 8-9).
        fancy = [{doc_id: term_score for (doc_id,), term_score
                  in self._fancy.suffix_items((term,))} for term in terms]
        fancy_floors = [self._fancy_floor_by_term.get(term, 0.0) for term in terms]
        heap = ResultHeap(k)
        all_fancy_docs = set().union(*fancy)
        remain_list: dict[int, dict[int, float]] = {}
        in_every_list: list[tuple[int, dict[int, float]]] = []
        for doc_id in sorted(all_fancy_docs):
            known = {
                index: fancy[index][doc_id]
                for index in range(len(terms))
                if doc_id in fancy[index]
            }
            if len(known) == len(terms):
                in_every_list.append((doc_id, known))
                processed.add(doc_id)
            else:
                remain_list[doc_id] = known
        stats.score_lookups += len(in_every_list)
        scores = self._live_scores([doc_id for doc_id, _known in in_every_list])
        for doc_id, known in in_every_list:
            current = scores[doc_id]
            if current is not None:
                stats.heap_offers += 1
                heap.add(doc_id, current + self.term_weight * sum(known.values()))

        # Phase 2: merge short and long lists in chunk order (lines 10-34).
        candidates = _ChunkCandidates(len(terms), conjunctive, processed,
                                      term_scores=True)
        sum_floors = sum(fancy_floors)

        def can_stop(next_chunk: int) -> bool:
            return self._termscore_can_stop(next_chunk, heap, remain_list,
                                            fancy_floors, stats, sum_floors)

        def seen(docs: "set[int]") -> None:
            for doc_id in docs.intersection(remain_list):
                del remain_list[doc_id]

        self._scan(streams, candidates, heap, stats, can_stop, on_docs=seen)
        return heap.results()

    def _termscore_can_stop(self, next_chunk: int, heap: ResultHeap,
                            remain_list: dict[int, dict[int, float]],
                            fancy_floors: list[float], stats: QueryStats,
                            sum_floors: float) -> bool:
        """End-of-chunk pruning and stopping test (Algorithm 3, lines 26-34)."""
        assert self.chunk_map is not None
        if not heap.is_full:
            return False
        floor = heap.min_score()
        # Prune remainList entries whose combined upper bound cannot reach the heap.
        if remain_list:
            stats.score_lookups += len(remain_list)
            scores = self._live_scores(list(remain_list))
            for doc_id, svr in scores.items():
                if svr is None:
                    del remain_list[doc_id]
                    continue
                known = remain_list[doc_id]
                term_bound = sum(
                    known.get(index, fancy_floors[index])
                    for index in range(len(fancy_floors))
                )
                if svr + self.term_weight * term_bound < floor:
                    del remain_list[doc_id]
        if remain_list:
            return False
        svr_bound = self.chunk_map.lower_bound(next_chunk + 2)
        return floor >= svr_bound + self.term_weight * sum_floors
