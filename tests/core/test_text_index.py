"""Tests for the SVRTextIndex facade (raw text in, ranked results out)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import QueryError, UnknownMethodError
from repro.core.text_index import SVRTextIndex


def build_small_index(method="chunk", **options):
    if method.startswith("chunk"):
        options.setdefault("chunk_ratio", 3.0)
        options.setdefault("min_chunk_size", 2)
    index = SVRTextIndex(method=method, **options)
    documents = {
        1: ("The golden gate bridge at dawn", 800.0),
        2: ("Amateur golden gate footage from a ferry", 20.0),
        3: ("Harbor ferries and sailors", 90.0),
        4: ("Golden sunset, gate tower restored", 300.0),
    }
    for doc_id, (text, score) in documents.items():
        index.add_document(doc_id, text, score)
    index.finalize()
    return index


class TestBuildAndSearch:
    def test_search_ranks_by_svr_score(self):
        index = build_small_index()
        results = index.search("golden gate", k=3).results
        assert [result.doc_id for result in results] == [1, 4, 2]

    def test_search_accepts_keyword_iterables(self):
        index = build_small_index()
        assert index.search(["golden", "gate"], k=1).results[0].doc_id == 1

    def test_analysis_is_case_insensitive(self):
        index = build_small_index()
        assert index.search("GOLDEN Gate", k=1).results[0].doc_id == 1

    def test_empty_query_rejected(self):
        index = build_small_index()
        with pytest.raises(QueryError):
            index.search("   ", k=3)

    def test_unknown_method_rejected(self):
        with pytest.raises(UnknownMethodError):
            SVRTextIndex(method="btree-of-doom")

    def test_disjunctive_search(self):
        index = build_small_index()
        conj = index.search("golden ferry", k=10).results
        disj = index.search("golden ferry", k=10, conjunctive=False).results
        assert len(disj) > len(conj)

    def test_document_count_and_scores(self):
        index = build_small_index()
        assert index.document_count() == 4
        assert index.current_score(1) == 800.0
        assert index.current_score(99) is None


class TestUpdates:
    def test_score_update_changes_ranking(self):
        index = build_small_index()
        index.update_score(2, 10_000.0)
        assert index.search("golden gate", k=1).results[0].doc_id == 2

    def test_insert_and_delete_documents(self):
        index = build_small_index()
        index.insert_document(5, "brand new golden gate drone footage", 5_000.0)
        assert index.search("golden gate", k=1).results[0].doc_id == 5
        index.delete_document(5)
        assert index.search("golden gate", k=1).results[0].doc_id == 1

    def test_content_update_changes_matching(self):
        index = build_small_index()
        index.update_content(3, "now also about the golden gate")
        doc_ids = index.search("golden gate", k=10).doc_ids()
        assert 3 in doc_ids
        index.update_content(1, "renamed to something else entirely")
        assert 1 not in index.search("golden gate", k=10).doc_ids()

    def test_tfidf_baseline_score(self):
        index = build_small_index()
        score_match = index.tfidf_score("golden gate", 1)
        score_nonmatch = index.tfidf_score("golden gate", 3)
        assert score_match > score_nonmatch == 0.0


class TestTermScoreMethods:
    def test_combined_scoring_prefers_term_relevance_on_ties(self):
        index = SVRTextIndex(method="chunk_termscore", chunk_ratio=3.0, min_chunk_size=2,
                             term_weight=1000.0, fancy_size=3)
        index.add_document(1, "golden gate golden gate golden gate", 100.0)
        index.add_document(2, "golden gate and many other words about other things", 100.0)
        index.finalize()
        results = index.search("golden gate", k=2).results
        assert results[0].doc_id == 1
        assert results[0].score > results[1].score

    def test_measurement_hooks(self):
        index = build_small_index()
        assert index.long_list_size_bytes() > 0
        index.drop_long_list_cache()       # must not raise
        response = index.search("golden", k=2)
        assert response.stats.pages_read >= 0


#: Builds, inserts and updates a few documents and prints every term's id.
_TERM_ID_SCRIPT = """
import json
from repro.core.text_index import SVRTextIndex
index = SVRTextIndex(method="id")
index.add_document(1, "golden gate bridge at dawn over the bay", 5.0)
index.add_document(2, "ferry crossing the bay toward golden hills", 3.0)
index.finalize()
index.insert_document(3, "harbor seals sleeping near the pier", 2.0)
index.update_content(1, "fog rolls past the tower and the cables")
print(json.dumps({term: index.dictionary.term_id(term)
                  for term in index.dictionary.terms()}))
"""


class TestTermIds:
    def _term_ids(self, hash_seed: str) -> dict:
        source = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(source),
                                                            os.environ.get("PYTHONPATH")])))
        output = subprocess.run([sys.executable, "-c", _TERM_ID_SCRIPT], env=env,
                                check=True, capture_output=True, text=True).stdout
        return json.loads(output)

    def test_term_ids_do_not_depend_on_the_hash_seed(self):
        first, second = self._term_ids("0"), self._term_ids("1")
        assert first == second
        # First-seen order: ids follow each document's term order.
        assert sorted(first, key=first.get) == [
            "golden", "gate", "bridge", "at", "dawn", "over", "the", "bay",
            "ferry", "crossing", "toward", "hills",
            "harbor", "seals", "sleeping", "near", "pier",
            "fog", "rolls", "past", "tower", "and", "cables"]
