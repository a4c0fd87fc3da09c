"""The ID-TermScore method (§5.2): the combined-scoring baseline.

This is the ID method with a per-posting term score (the normalised term
frequency), so that queries can rank by the combined function
``f(d) = svr(d) + term_weight * sum_i termscore(t_i, d)`` (§4.3.3).  Like the
plain ID method it must scan every posting of every query term, which is the
behaviour Figure 9 compares Chunk-TermScore against.
"""

from __future__ import annotations

from repro.core.indexes.id_method import IDIndex
from repro.core.posting import Posting
from repro.storage.environment import StorageEnvironment
from repro.text.documents import DocumentStore


class IDTermScoreIndex(IDIndex):
    """ID-ordered long lists whose postings carry normalised-TF term scores.

    Parameters
    ----------
    term_weight:
        Weight of the term-score sum in the combined scoring function.
    """

    method_name = "id_termscore"
    stores_term_scores = True

    def __init__(self, env: StorageEnvironment, documents: DocumentStore,
                 name: str = "svr", term_weight: float = 1.0,
                 blocked_postings: "bool | None" = None,
                 list_cache_pages: "int | None" = None) -> None:
        super().__init__(env, documents, name=name,
                         blocked_postings=blocked_postings,
                         list_cache_pages=list_cache_pages)
        self.term_weight = float(term_weight)

    def _normalized_tf(self, doc_id: int, term: str) -> float:
        document = self.documents.get(doc_id)
        if document.length == 0:
            return 0.0
        return document.term_frequency(term) / document.length

    def _make_posting(self, doc_id: int, term: str) -> Posting:
        return Posting(doc_id=doc_id, term_score=self._normalized_tf(doc_id, term))

    def _delta_term_score(self, doc_id: int, term: str) -> float:
        return self._normalized_tf(doc_id, term)

    def _result_scores(self, doc_ids: "list[int]", svr_scores: "list[float]",
                       score_maps: "list[dict[int, float]]") -> "list[float]":
        # Term scores are summed in query-term order; a term without the
        # document adds 0.0, which leaves the sum bit-identical.
        columns = [[scores.get(doc_id, 0.0) for doc_id in doc_ids]
                   for scores in score_maps]
        weight = self.term_weight
        return [svr_score + weight * sum(term_scores)
                for svr_score, term_scores in zip(svr_scores, zip(*columns))]
