"""Span trees and the slow-query log."""

from __future__ import annotations

import random

import pytest

from repro.core.text_index import SVRTextIndex
from repro.errors import ObservabilityError
from repro.obs.trace import (
    SlowQueryLog,
    current_span,
    set_tracing,
    slow_query_threshold_from_environ,
    span,
    tracing_from_environ,
    tracing_enabled,
)
from tests.conftest import METHOD_OPTIONS, make_corpus


@pytest.fixture
def traced():
    previous = set_tracing(True)
    yield
    set_tracing(previous)


class TestEnviron:
    def test_tracing_from_environ(self, monkeypatch):
        for off in ("", "0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_TRACE", off)
            assert not tracing_from_environ()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert tracing_from_environ()

    def test_slow_query_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS", raising=False)
        assert slow_query_threshold_from_environ() == 100.0
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "2.5")
        assert slow_query_threshold_from_environ() == 2.5
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "-1")
        with pytest.raises(ObservabilityError):
            slow_query_threshold_from_environ()
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "soon")
        with pytest.raises(ObservabilityError):
            slow_query_threshold_from_environ()


class TestSpanTree:
    def test_disabled_spans_yield_none(self):
        previous = set_tracing(False)
        try:
            assert not tracing_enabled()
            with span("query") as node:
                assert node is None
            assert current_span() is None
        finally:
            set_tracing(previous)

    def test_nesting(self, traced):
        with span("query", k=3) as root:
            assert current_span() is root
            with span("query.plan") as plan:
                assert current_span() is plan
            with span("query.merge"):
                pass
        assert current_span() is None
        assert [child.name for child in root.children] == ["query.plan",
                                                           "query.merge"]
        assert root.duration_ms is not None and root.duration_ms >= 0.0
        assert root.tags == {"k": 3}

    def test_to_dict_and_format(self, traced):
        with span("query", k=1) as root:
            with span("shard.scan", shard=0):
                pass
        data = root.to_dict()
        assert data["name"] == "query"
        assert data["children"][0]["tags"] == {"shard": 0}
        text = root.format_tree()
        assert "query" in text and "shard.scan" in text


class TestSlowQueryLog:
    def _closed_span(self, name="query", duration_ms=5.0):
        with span(name) as node:
            pass
        node.duration_ms = duration_ms
        return node

    def test_below_threshold_not_recorded(self, traced):
        log = SlowQueryLog(threshold_ms=10.0)
        assert log.maybe_record(self._closed_span(duration_ms=5.0)) is None
        assert len(log) == 0

    def test_above_threshold_recorded_with_attribution(self, traced):
        log = SlowQueryLog(threshold_ms=1.0)
        root = self._closed_span(duration_ms=50.0)
        entry = log.maybe_record(root, keywords=["a", "b"],
                                 attribution={"a": {"pages_read": 3}})
        assert entry is not None
        assert log.entries()[0]["keywords"] == ["a", "b"]
        assert log.entries()[0]["terms"]["a"]["pages_read"] == 3
        assert log.entries()[0]["tree"]["name"] == "query"
        log.clear()
        assert len(log) == 0

    def test_capacity_bound(self, traced):
        log = SlowQueryLog(capacity=2, threshold_ms=0.0)
        for _ in range(5):
            log.maybe_record(self._closed_span(duration_ms=1.0))
        assert len(log) == 2


class TestEngineTracing:
    def _build(self, shards=4, threads=4):
        corpus = make_corpus(random.Random(97), num_docs=40, vocabulary=25)
        index = SVRTextIndex(method="chunk", shards=shards, threads=threads,
                             cache_pages=256, **METHOD_OPTIONS["chunk"])
        for doc_id, terms, score in corpus:
            index.add_document_terms(doc_id, terms, score)
        index.finalize()
        return index

    def test_serial_engine_records_aggregate_attribution(self, traced):
        from repro.obs.trace import SLOW_QUERIES

        SLOW_QUERIES.clear()
        previous = SLOW_QUERIES.threshold_ms
        SLOW_QUERIES.threshold_ms = 0.0
        index = self._build(shards=1, threads=1)
        try:
            index.search(["w001"], k=5)
            entry = SLOW_QUERIES.entries()[-1]
            assert set(entry["terms"]) == {"*"}
        finally:
            SLOW_QUERIES.threshold_ms = previous
            SLOW_QUERIES.clear()
            index.close()

    def test_quarantine_retry_path_stays_traced(self, traced, tmp_path):
        """A query that quarantines a shard mid-flight still answers and the
        trace/metrics wrapper records exactly one query."""
        corpus = make_corpus(random.Random(97), num_docs=40, vocabulary=25)
        index = SVRTextIndex(method="chunk", shards=4, threads=4,
                             cache_pages=256, path=str(tmp_path / "idx"),
                             **METHOD_OPTIONS["chunk"])
        for doc_id, terms, score in corpus:
            index.add_document_terms(doc_id, terms, score)
        index.finalize()
        index.checkpoint()
        try:
            index.router.quarantine_shard(1, "test")
            before = index.router.metrics.counter_value("query.count")
            response = index.search(["w001", "w004"], k=5,
                                    conjunctive=False)
            after = index.router.metrics.counter_value("query.count")
            assert after == before + 1
            assert response.stats is not None
        finally:
            index.close()
