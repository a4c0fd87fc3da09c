"""Query EXPLAIN / EXPLAIN ANALYZE: plan shape, zero-I/O, bit-identity.

Two hard contracts from the observability layer's charter:

* **EXPLAIN is accounting-free** — describing a plan goes through the peek
  path only (directory peeks, cached handles, dictionary stats), so the
  engine's I/O fingerprint is bit-identical before and after any number of
  ``explain()`` calls;
* **ANALYZE is the real query** — ``explain(analyze=True)`` runs the exact
  production query path (plus tracing, which the invisibility suite pins as
  accounting-free), so a workload probed through ANALYZE produces the same
  answers and the same final I/O fingerprint as one probed through
  ``search()``, for every method x shard count x thread count.
"""

from __future__ import annotations

import random

import pytest

from repro.core.text_index import SVRTextIndex
from repro.errors import QueryError
from repro.obs.trace import SLOW_QUERIES, tracing_enabled
from tests.conftest import (
    METHOD_OPTIONS,
    SVR_ONLY_METHODS,
    TERMSCORE_METHODS,
    make_corpus,
)
from tests.helpers import category_fingerprint

ALL_METHODS = SVR_ONLY_METHODS + TERMSCORE_METHODS

_PROBES = (
    (["w001", "w004"], 3, True),
    (["w001", "w004"], 10, True),
    (["w002", "w007", "w011"], 5, True),
    (["w003"], 10, False),
    (["w005", "w009"], 10, False),
)


@pytest.fixture(autouse=True)
def clean_slow_queries():
    yield
    SLOW_QUERIES.clear()


def _build(method: str, shards: int, threads: int,
           **kwargs) -> SVRTextIndex:
    corpus = make_corpus(random.Random(97), num_docs=40, vocabulary=25)
    index = SVRTextIndex(method=method, shards=shards, threads=threads,
                         cache_pages=256, **METHOD_OPTIONS[method], **kwargs)
    for doc_id, terms, score in corpus:
        index.add_document_terms(doc_id, terms, score)
    index.finalize()
    return index


def _run_probe_workload(method: str, shards: int, threads: int,
                        analyze: bool):
    """The invisibility suite's probe workload, answered either through
    ``search()`` or through ``explain(analyze=True)``."""
    index = _build(method, shards, threads)
    try:
        answers = []

        def probe():
            for keywords, k, conjunctive in _PROBES:
                if analyze:
                    plan = index.explain(keywords, k=k,
                                         conjunctive=conjunctive,
                                         analyze=True)
                    rows = plan["execution"]["results"]
                    answers.append([(r["doc_id"], r["score"]) for r in rows])
                else:
                    response = index.search(keywords, k=k,
                                            conjunctive=conjunctive)
                    answers.append(
                        [(r.doc_id, r.score) for r in response.results]
                    )

        probe()
        rng = random.Random(5)
        live = [doc_id for doc_id, _terms, _score in
                make_corpus(random.Random(97), num_docs=40, vocabulary=25)]
        for _ in range(6):
            index.update_score(rng.choice(live),
                               round(rng.uniform(0.0, 1000.0), 2))
        probe()
        index.apply_score_updates(
            [(rng.choice(live), round(rng.uniform(0.0, 1000.0), 2))
             for _ in range(8)]
        )
        probe()
        return answers, category_fingerprint(index.env)
    finally:
        index.close()


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_analyze_is_the_real_query(method, shards, threads):
    """ANALYZE answers and final I/O fingerprints match search() exactly."""
    search_answers, search_fp = _run_probe_workload(
        method, shards, threads, analyze=False)
    analyze_answers, analyze_fp = _run_probe_workload(
        method, shards, threads, analyze=True)
    assert analyze_answers == search_answers
    assert analyze_fp == search_fp


@pytest.mark.parametrize("method", ALL_METHODS)
def test_explain_is_accounting_free(method):
    """Plain EXPLAIN performs zero accounted storage accesses."""
    index = _build(method, shards=4, threads=1)
    try:
        index.search(["w001", "w004"], k=5)  # realistic warm state
        before = category_fingerprint(index.env)
        for keywords, k, conjunctive in _PROBES:
            plan = index.explain(keywords, k=k, conjunctive=conjunctive)
            assert plan["execution"] is None
        index.explain(["zzzabsent"], k=5)
        assert category_fingerprint(index.env) == before
    finally:
        index.close()


def test_plan_shape_and_term_layouts():
    # Estimates come from the blocked directory: pin the layout so the
    # REPRO_BLOCKED_POSTINGS=0 CI leg still checks them.
    index = _build("chunk", shards=4, threads=1, list_cache_pages=8,
                   blocked_postings=True)
    try:
        plan = index.explain(["w001", "zzzabsent"], k=5)
        assert plan["query"]["keywords"] == ["w001", "zzzabsent"]
        engine = plan["engine"]
        assert engine["method"] == "chunk"
        assert engine["shards"] == 4
        assert isinstance(engine["blocked_postings"], bool)
        by_term = {row["term"]: row for row in plan["terms"]}
        assert by_term["zzzabsent"]["layout"] == "absent"
        present = by_term["w001"]
        assert present["layout"] == "blocked"
        assert present["estimated_postings"] > 0
        assert 0 <= present["shard"] < 4
        assert "cacheable" in present["cache"]
    finally:
        index.close()


def test_analyze_execution_section():
    index = _build("chunk", shards=4, threads=4)
    try:
        previous = tracing_enabled()
        plan = index.explain(["w001", "w004"], k=5, analyze=True)
        # ANALYZE flips tracing on for its query only, then restores it.
        assert tracing_enabled() == previous
        execution = plan["execution"]
        assert execution["latency_ms"] >= 0.0
        assert execution["totals"]["postings_scanned"] > 0
        assert set(execution["phases"]) == {"plan_ms", "merge_ms"}
        assert execution["trace"]["name"] == "explain.analyze"
        assert [row["shard"] for row in execution["shards"]] == [0, 1, 2, 3]
    finally:
        index.close()


def test_estimates_track_actuals_on_single_term_scans():
    """A term's ``estimated_postings`` bounds what a full scan of it decodes."""
    index = _build("chunk", shards=1, threads=1, blocked_postings=True)
    try:
        for term in ("w001", "w003", "w007"):
            plan = index.explain([term], k=40, conjunctive=False,
                                 analyze=True)
            (row,) = plan["terms"]
            actual = plan["execution"]["totals"]["postings_scanned"]
            assert 0 < actual <= row["estimated_postings"]
    finally:
        index.close()


def test_explain_rejects_empty_queries():
    index = _build("chunk", shards=1, threads=1)
    try:
        with pytest.raises(QueryError):
            index.explain("")
    finally:
        index.close()


class TestRenderAndCLI:
    def test_render_text_mentions_terms_and_phases(self):
        from repro.obs.explain import render_text

        index = _build("chunk", shards=4, threads=1)
        try:
            rendered = render_text(index.explain(["w001", "w004"], k=5,
                                                 analyze=True))
        finally:
            index.close()
        assert "w001" in rendered and "w004" in rendered
        assert "ANALYZE" in rendered
        assert "postings=" in rendered

    def test_cli_demo_analyze_json(self, capsys):
        import json

        from repro.obs.explain import main as explain_main

        assert explain_main(["--demo", "term3", "term7", "--analyze",
                             "--format", "json"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["query"]["keywords"] == ["term3", "term7"]
        assert plan["execution"]["totals"]["postings_scanned"] >= 0
