"""Re-inserted documents stay visible to Chunk, Chunk-TermScore and Score-Threshold.

Deleting a document only flags it (Appendix A.2), so its long postings stay
in the lists.  Re-inserting it with a lower score writes short postings at
the lower chunk (or list score) and a ListChunk/ListScore row saying the
document lives in the short lists.  The stale long postings then arrive
*first* and complete the document; the bookkeeping row rejects that
completion, and the document must still be found through its short postings
further down.  Each test replays the same delete → re-insert-lower storm on
the method and on its ID-ordered twin (which scans every list to its end)
and compares every answer.  Chunk-TermScore is compared on conjunctive
queries only, to the float rounding of its stored term scores: on
disjunctive ones it sums only the completing posting's term score, which
ID-TermScore does not.
"""

from __future__ import annotations

import random

import pytest

from repro.core.indexes.registry import create_index
from repro.storage.environment import StorageEnvironment
from repro.text.documents import DocumentStore
from tests.conftest import METHOD_OPTIONS

VOCABULARY = [f"r{i}" for i in range(8)]

#: Method under test -> the ID method ranking documents the same way.
TWINS = {"chunk": "id", "score_threshold": "id", "chunk_termscore": "id_termscore"}


def _build(method: str, blocked: bool):
    index = create_index(method, StorageEnvironment(cache_pages=512, page_size=256),
                         DocumentStore(), blocked_postings=blocked,
                         **METHOD_OPTIONS[method])
    rng = random.Random(31)
    for doc_id in range(1, 61):
        terms = rng.sample(VOCABULARY, rng.randint(2, 5))
        index.add_document(doc_id, round(1000 * rng.random() ** 3, 2), terms=terms)
    index.finalize()
    return index


def _answers(index, rng: random.Random, disjunctive: bool = True) -> list:
    answers = []
    live = sorted(set(index.documents.doc_ids()))
    for _step in range(25):
        doc_id = rng.choice([d for d in live if index.current_score(d) is not None])
        terms = sorted(index.documents.get(doc_id).distinct_terms)
        lower = round(index.current_score(doc_id) * rng.uniform(0.01, 0.5), 2)
        index.delete_document(doc_id)
        index.insert_document(doc_id, terms, lower)
        for _ in range(4):
            keywords = rng.sample(VOCABULARY, rng.choice((1, 2, 2)))
            k = rng.choice((3, 10, 40))
            conjunctive = rng.random() < 0.6 or not disjunctive
            response = index.query(keywords, k=k, conjunctive=conjunctive)
            answers.append((tuple(keywords), k, conjunctive,
                            [(r.doc_id, r.score) for r in response.results]))
    return answers


@pytest.mark.parametrize("blocked", [True, False], ids=["blocked", "legacy"])
@pytest.mark.parametrize("method", sorted(TWINS))
def test_reinserted_lower_document_matches_id_twin(method, blocked):
    disjunctive = method != "chunk_termscore"
    got = _answers(_build(method, blocked), random.Random(5), disjunctive)
    expected = _answers(_build(TWINS[method], blocked), random.Random(5), disjunctive)
    for (query, got_results), (_query, expected_results) in zip(
            ((answer[:3], answer[3]) for answer in got),
            ((answer[:3], answer[3]) for answer in expected)):
        assert [doc for doc, _ in got_results] == [doc for doc, _ in expected_results], query
        assert [score for _, score in got_results] == pytest.approx(
            [score for _, score in expected_results], rel=1e-9, abs=1e-6), query
    assert len(got) == len(expected)
