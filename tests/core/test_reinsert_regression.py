"""Re-inserted documents are ranked by what was re-inserted, not what was deleted.

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

A re-insert may also change the document's terms and lower its score.  The
long-list methods must then filter the long postings of the terms the
document no longer has (a REM in the short or delta list) and drop the
short postings filed under its old state, and the Score method must drop the
clustered entries it filed under the old score; those cases are checked
against the brute-force reference.  Chunk-TermScore is checked on
conjunctive queries only, for the reason above.

A score update to a deleted document must not bring back the Score method's
clustered entries: a later lower re-insert would rank at the stale score.

A content update files its new terms' postings under the document's list
state; a later re-insert without such a term must retire them, at a lower
or a higher score.  It also changes the document's length, so the TermScore
methods must re-file the term scores of the terms it keeps.
"""

from __future__ import annotations

import random

import pytest

from repro.core.indexes.registry import create_index
from repro.storage.environment import StorageEnvironment
from repro.text.documents import DocumentStore
from tests.conftest import METHOD_OPTIONS
from tests.helpers import ReferenceModel, normalized_tf, reference_top_k

VOCABULARY = [f"r{i}" for i in range(8)]

#: Method under test -> the ID method ranking documents the same way.
TWINS = {"chunk": "id", "score_threshold": "id", "chunk_termscore": "id_termscore"}


def _build(method: str):
    index = create_index(method, StorageEnvironment(cache_pages=512, page_size=256),
                         DocumentStore(),
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


@pytest.mark.parametrize("method", sorted(TWINS))
def test_reinserted_lower_document_matches_id_twin(method):
    disjunctive = method != "chunk_termscore"
    got = _answers(_build(method), random.Random(5), disjunctive)
    expected = _answers(_build(TWINS[method]), random.Random(5), disjunctive)
    for (query, got_results), (_query, expected_results) in zip(
            ((answer[:3], answer[3]) for answer in got),
            ((answer[:3], answer[3]) for answer in expected)):
        assert [doc for doc, _ in got_results] == [doc for doc, _ in expected_results], query
        assert [score for _, score in got_results] == pytest.approx(
            [score for _, score in expected_results], rel=1e-9, abs=1e-6), query
    assert len(got) == len(expected)


@pytest.mark.parametrize("method", ["id", "id_termscore", "score", "chunk",
                                    "chunk_termscore", "score_threshold"])
def test_reinsert_with_new_terms_matches_reference(method):
    index = _build(method)
    contents = {doc_id: sorted(index.documents.get(doc_id).distinct_terms)
                for doc_id in index.documents.doc_ids()}
    scores = {doc_id: index.current_score(doc_id) for doc_id in contents}
    rng = random.Random(17)
    for _step in range(20):
        doc_id = rng.choice(sorted(contents))
        terms = rng.sample(VOCABULARY, rng.randint(1, 4))
        scores[doc_id] = round(scores[doc_id] * rng.uniform(0.01, 0.5), 2)
        contents[doc_id] = terms
        index.delete_document(doc_id)
        index.insert_document(doc_id, terms, scores[doc_id])
        term_scores = None
        if method in ("id_termscore", "chunk_termscore"):
            term_scores = {doc: normalized_tf(doc_terms)
                           for doc, doc_terms in contents.items()}
        live = {doc: set(doc_terms) for doc, doc_terms in contents.items()}
        for _ in range(4):
            keywords = rng.sample(VOCABULARY, rng.choice((1, 2)))
            k = rng.choice((3, 10, 40))
            conjunctive = rng.random() < 0.5 or method == "chunk_termscore"
            got = [(r.doc_id, r.score) for r in
                   index.query(keywords, k=k, conjunctive=conjunctive).results]
            expected = reference_top_k(live, scores, set(), keywords, k,
                                       conjunctive, term_scores=term_scores)
            query = (tuple(keywords), k, conjunctive)
            assert [doc for doc, _ in got] == [doc for doc, _ in expected], query
            assert [score for _, score in got] == pytest.approx(
                [score for _, score in expected], rel=1e-6), query


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_score_update_of_deleted_document_keeps_no_entries(seed):
    index = _build("score")
    contents = {doc_id: set(index.documents.get(doc_id).distinct_terms)
                for doc_id in index.documents.doc_ids()}
    scores = {doc_id: index.current_score(doc_id) for doc_id in contents}
    rng = random.Random(seed)
    for doc_id in rng.sample(sorted(contents), 5):
        index.delete_document(doc_id)
        index.update_score(doc_id, 5000.0)
        index.apply_batch([(doc_id, 6000.0)])
        scores[doc_id] = round(scores[doc_id] / 10, 2)
        index.insert_document(doc_id, sorted(contents[doc_id]), scores[doc_id])
        for keyword in VOCABULARY:
            got = [(r.doc_id, r.score) for r in index.query([keyword], k=5).results]
            assert got == reference_top_k(contents, scores, set(), [keyword], 5), keyword


@pytest.mark.parametrize("higher", [False, True])
@pytest.mark.parametrize("method", ["chunk", "chunk_termscore", "score_threshold"])
def test_term_added_by_content_update_is_retired_by_reinsert(method, higher):
    """``update_content`` adds a term, the document is deleted and
    re-inserted without it: an OR query on that term must not find it."""
    index = _build(method)
    model = ReferenceModel(method)
    for doc_id in index.documents.doc_ids():
        model.insert(doc_id, list(index.documents.get(doc_id).term_frequencies),
                     index.current_score(doc_id))
    rng = random.Random(23)
    for doc_id in rng.sample(sorted(model.scores), 8):
        kept = model.terms[doc_id]
        added = kept + ["added"]
        index.update_content(doc_id, added)
        model.update_content(doc_id, added)
        index.delete_document(doc_id)
        model.delete(doc_id)
        score = round(model.scores[doc_id] * (3.0 if higher else 0.3), 2)
        index.insert_document(doc_id, kept, score)
        model.insert(doc_id, kept, score)
        for keywords in (["added"], ["added", kept[0]]):
            response = index.query(keywords, k=100, conjunctive=False)
            model.check(response.results, keywords, 100, False)


@pytest.mark.parametrize("method", ["id_termscore", "chunk_termscore"])
def test_content_update_refiles_the_term_scores_of_kept_terms(method):
    """A content update changes the document length, so every kept term's
    term score changes too; AND queries rank by the new ones."""
    index = _build(method)
    model = ReferenceModel(method)
    for doc_id in index.documents.doc_ids():
        model.insert(doc_id, list(index.documents.get(doc_id).term_frequencies),
                     index.current_score(doc_id))
    rng = random.Random(29)
    for doc_id in rng.sample(sorted(model.scores), 10):
        terms = model.terms[doc_id] + [rng.choice(VOCABULARY)] * rng.randint(1, 4)
        index.update_content(doc_id, terms)
        model.update_content(doc_id, terms)
        for term in VOCABULARY:
            response = index.query([term], k=100)
            model.check(response.results, [term], 100, True)
        pair = rng.sample(VOCABULARY, 2)
        model.check(index.query(pair, k=100).results, pair, 100, True)
