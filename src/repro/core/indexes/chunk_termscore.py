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

from repro.core.indexes.base import QueryResult, QueryStats, _StagedDocument
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

    def __init__(self, env: StorageEnvironment, documents: DocumentStore,
                 name: str = "svr", chunk_ratio: float = 6.12, min_chunk_size: int = 100,
                 chunk_strategy=None, term_weight: float = 1.0,
                 fancy_size: int = 50, blocked_postings: "bool | None" = None,
                 list_cache_pages: "int | None" = None) -> None:
        super().__init__(env, documents, name=name, chunk_ratio=chunk_ratio,
                         min_chunk_size=min_chunk_size, chunk_strategy=chunk_strategy,
                         blocked_postings=blocked_postings,
                         list_cache_pages=list_cache_pages)
        self.term_weight = float(term_weight)
        self.fancy_size = int(fancy_size)
        # Fancy lists: (term, doc_id) -> term_score; small and cache-resident.
        # Entries are materialised only for terms with more than ``fancy_size``
        # postings — for rarer terms a fancy list cannot prune anything, so
        # only the per-term score ceiling below is kept.
        self._fancy = self._create_kvstore(f"{name}.fancy", key_shard="term")
        # Per-term upper bound on the term score of any document *not* present
        # in the term's fancy list (the pruning bound of Algorithm 3).
        self._fancy_floor_by_term: dict[str, float] = {}

    # -- term scores -----------------------------------------------------------

    def _normalized_tf(self, doc_id: int, term: str) -> float:
        document = self.documents.get(doc_id)
        if document.length == 0:
            return 0.0
        return document.term_frequency(term) / document.length

    def _build_term_score(self, doc_id: int, term: str) -> float:
        return self._normalized_tf(doc_id, term)

    def _current_term_score(self, doc_id: int, term: str) -> float:
        return self._normalized_tf(doc_id, term)

    # -- build ------------------------------------------------------------------

    def _build_long_lists(self, staged: list[_StagedDocument]) -> None:
        super()._build_long_lists(staged)
        term_entries: dict[str, list[tuple[float, int]]] = {}
        for document in staged:
            for term in document.term_frequencies:
                term_entries.setdefault(term, []).append(
                    (self._normalized_tf(document.doc_id, term), document.doc_id)
                )
        for term, entries in term_entries.items():
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

    # -- fancy-list bounds ----------------------------------------------------------

    def _fancy_floor(self, term: str) -> float:
        """Upper bound on the term score of any document *not* in the fancy list."""
        return self._fancy_floor_by_term.get(term, 0.0)

    def _load_fancy(self, term: str) -> dict[int, float]:
        """Load one term's fancy list as a doc_id -> term_score mapping."""
        return {
            doc_id: term_score
            for (_term, doc_id), term_score in self._fancy.prefix_items((term,))
        }

    def _fancy_additions(self, doc_id: int,
                         terms: "set[str]") -> list[tuple[tuple[str, int], float]]:
        """Fancy-list entries to add when ``doc_id`` gains ``terms``.

        The invariant the pruning bound relies on is: any document absent from
        the fancy list of ``term`` has term score at most ``_fancy_floor(term)``.
        Adding the new posting whenever its score exceeds the floor preserves
        it without ever raising the floor.
        """
        additions: list[tuple[tuple[str, int], float]] = []
        for term in terms:
            term_score = self._normalized_tf(doc_id, term)
            if term_score > self._fancy_floor(term):
                additions.append(((term, doc_id), term_score))
        additions.sort()
        return additions

    # -- document changes ----------------------------------------------------------------

    def _after_insert(self, doc_id: int, score: float) -> None:
        super()._after_insert(doc_id, score)
        self._fancy.put_many(self._fancy_additions(doc_id, self._content_terms(doc_id)))

    def _after_content_update(self, doc_id: int, old_document: Document,
                              new_document: Document) -> None:
        super()._after_content_update(doc_id, old_document, new_document)
        removed = old_document.distinct_terms - new_document.distinct_terms
        added = new_document.distinct_terms - old_document.distinct_terms
        self._fancy.delete_many(
            sorted((term, doc_id) for term in removed), ignore_missing=True
        )
        self._fancy.put_many(self._fancy_additions(doc_id, added))

    # -- query (Algorithm 3) ----------------------------------------------------------------

    def _merge_term_streams(self, streams: list, terms: list[str], k: int,
                            conjunctive: bool, stats: QueryStats) -> list[QueryResult]:
        assert self.chunk_map is not None
        processed: set[int] = set()

        # Phase 1: merge the fancy lists (Algorithm 3, lines 8-9).
        fancy = [self._load_fancy(term) for term in terms]
        fancy_floors = [self._fancy_floor(term) for term in terms]
        heap = ResultHeap(k)
        all_fancy_docs = set().union(*fancy) if fancy else set()
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
                                      stale_of=self._stale_long_docs,
                                      term_scores=True)
        sum_floors = sum(fancy_floors)

        def can_stop(next_chunk: int) -> bool:
            return self._termscore_can_stop(next_chunk, heap, remain_list,
                                            fancy_floors, stats, sum_floors)

        for chunk_id, longs, shorts in self._scan_chunks(streams, stats, can_stop):
            docs, completed = candidates.complete(chunk_id, longs, shorts)
            if remain_list:
                for doc_id in docs.intersection(remain_list):
                    del remain_list[doc_id]
            self._resolve_candidates(completed, heap, stats)
        return [QueryResult(entry.doc_id, entry.score) for entry in heap.results()]

    def _candidate_score(self, score: float, found: dict) -> float:
        return score + self.term_weight * sum(found.values())

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
