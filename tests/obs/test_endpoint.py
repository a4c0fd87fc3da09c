"""Live monitoring endpoint: routes, scrape fidelity, health gating."""

from __future__ import annotations

import json
import random
import urllib.error
import urllib.request

import pytest

from repro.core.text_index import SVRTextIndex
from repro.errors import ObservabilityError
from repro.obs.http import http_port_from_environ, serve_observability
from tests.conftest import METHOD_OPTIONS, make_corpus


def _build(shards=4, threads=1):
    corpus = make_corpus(random.Random(97), num_docs=40, vocabulary=25)
    index = SVRTextIndex(method="chunk", shards=shards, threads=threads,
                         cache_pages=256, **METHOD_OPTIONS["chunk"])
    for doc_id, terms, score in corpus:
        index.add_document_terms(doc_id, terms, score)
    index.finalize()
    return index


def _get(url: str):
    """(status, content_type, body) — non-2xx responses included."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return (response.status, response.headers.get("Content-Type"),
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return (error.code, error.headers.get("Content-Type"),
                error.read().decode("utf-8"))


def _prometheus_value(body: str, series: str,
                      default: "float | None" = None) -> float:
    for line in body.splitlines():
        if line.startswith(series + " "):
            return float(line.split()[-1])
    if default is not None:
        return default
    raise AssertionError(f"series {series!r} not found in scrape")


class TestRoutes:
    def test_metrics_scrape_matches_registry_exactly(self):
        index = _build(threads=4)
        try:
            for _ in range(7):
                index.search(["w001", "w004"], k=5)
            with serve_observability(index) as server:
                status, content_type, body = _get(server.url + "/metrics")
            assert status == 200
            assert content_type.startswith("text/plain")
            assert "# TYPE query_count counter" in body
            assert "# HELP query_count" in body
            assert "# TYPE query_latency_ms histogram" in body
            metrics = index.router.metrics
            assert _prometheus_value(body, "query_count") == \
                metrics.counter_value("query.count") == 7.0
            assert _prometheus_value(body, "query_latency_ms_count") == 7.0
            assert _prometheus_value(body, "query_postings_scanned") == \
                metrics.counter_value("query.postings_scanned") > 0
        finally:
            index.close()

    def test_snapshot_and_slo_routes_serve_json(self):
        index = _build()
        try:
            index.search(["w001"], k=5)
            index.router._obs_roll()
            with serve_observability(index) as server:
                status, content_type, body = _get(server.url + "/snapshot")
                assert status == 200 and "json" in content_type
                snapshot = json.loads(body)
                assert snapshot["engine"]["method"] == "chunk"
                assert snapshot["timeseries"]["windows"]
                status, _ct, body = _get(server.url + "/slo")
                assert status == 200
                assert json.loads(body)["burning"] is False
                status, _ct, body = _get(server.url + "/slow")
                assert status == 200
                assert isinstance(json.loads(body), list)
        finally:
            index.close()

    def test_healthz_flips_to_503_on_quarantine(self):
        index = _build()
        try:
            with serve_observability(index) as server:
                status, _ct, body = _get(server.url + "/healthz")
                assert status == 200
                assert json.loads(body)["status"] == "ok"
                index.router.quarantine_shard(2, "injected for test")
                status, _ct, body = _get(server.url + "/healthz")
                assert status == 503
                payload = json.loads(body)
                assert payload["status"] == "degraded"
                assert any("quarantined" in reason
                           for reason in payload["reasons"])
        finally:
            index.close()

    def test_unknown_route_is_404(self):
        index = _build()
        try:
            with serve_observability(index) as server:
                status, _ct, body = _get(server.url + "/nope")
            assert status == 404
            assert "/metrics" in body
        finally:
            index.close()

    def test_close_is_idempotent_and_frees_the_port(self):
        index = _build()
        try:
            server = serve_observability(index)
            url = server.url
            server.close()
            server.close()
            with pytest.raises(urllib.error.URLError):
                urllib.request.urlopen(url + "/healthz", timeout=1)
        finally:
            index.close()


class TestAutostart:
    def test_env_port_starts_and_close_stops(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_HTTP_PORT", "0")
        index = _build(shards=1)
        url = index._obs_server.url
        status, _ct, _body = _get(url + "/healthz")
        assert status == 200
        index.close()
        assert index._obs_server is None
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=1)

    def test_unset_env_means_no_server(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_HTTP_PORT", raising=False)
        index = _build(shards=1)
        try:
            assert index._obs_server is None
        finally:
            index.close()

    def test_port_parsing_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_HTTP_PORT", "nope")
        with pytest.raises(ObservabilityError):
            http_port_from_environ()
        monkeypatch.setenv("REPRO_OBS_HTTP_PORT", "70000")
        with pytest.raises(ObservabilityError):
            http_port_from_environ()


def test_service_storm_then_scrape_is_consistent():
    """The CI endpoint smoke: a concurrent storm, then one scrape whose
    totals match both the registry and the driver's own accounting."""
    from repro.workloads.queries import KeywordQuery
    from repro.workloads.service import ServiceLoadConfig, ServiceLoadDriver
    from repro.workloads.updates import ScoreUpdate

    rng = random.Random(3)
    vocab = [f"w{i:03d}" for i in range(25)]
    queries = [
        KeywordQuery(keywords=tuple(rng.sample(vocab, 2)),
                     k=rng.choice([3, 5]),
                     conjunctive=rng.random() < 0.5)
        for _ in range(12)
    ]
    updates = [
        ScoreUpdate(doc_id=rng.randrange(1, 41), delta=rng.uniform(-80, 80))
        for _ in range(60)
    ]
    index = _build(shards=4, threads=4)
    try:
        result = ServiceLoadDriver(
            ServiceLoadConfig(num_clients=4, query_fraction=0.5,
                              batch_window=16, seed=7),
            queries, updates,
        ).run(index)
        with serve_observability(index) as server:
            status, _ct, body = _get(server.url + "/metrics")
            assert status == 200
            assert _prometheus_value(body, "query_count") == \
                index.router.metrics.counter_value("query.count") == \
                float(result.queries_run)
            status, _ct, snap_body = _get(server.url + "/snapshot")
        snapshot = json.loads(snap_body)
        # The driver's post-storm roll closed out the final window, so the
        # scrape sees the storm in the ring, not just lifetime counters.
        windows = snapshot["timeseries"]["windows"]
        assert sum(w["deltas"].get("query.count", 0.0) for w in windows) == \
            float(result.queries_run)
        assert snapshot["slo"]["objectives"]
    finally:
        index.close()
