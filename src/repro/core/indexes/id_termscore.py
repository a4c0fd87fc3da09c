"""The ID-TermScore method (§5.2): the combined-scoring baseline.

This is the ID method with a per-posting term score (the normalised term
frequency), so that queries can rank by the combined function
``f(d) = svr(d) + term_weight * sum_i termscore(t_i, d)`` (§4.3.3).  Like the
plain ID method it must scan every posting of every query term, which is the
behaviour Figure 9 compares Chunk-TermScore against.
"""

from __future__ import annotations

from repro.core.indexes.id_method import IDIndex
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
                 list_cache_pages: "int | None" = None) -> None:
        super().__init__(env, documents, name=name,
                         list_cache_pages=list_cache_pages)
        self.term_weight = float(term_weight)
