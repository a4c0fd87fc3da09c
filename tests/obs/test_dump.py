"""Snapshot exporters and the introspection CLI."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.text_index import SVRTextIndex
from repro.errors import ObservabilityError
from repro.obs.dump import main as dump_main
from repro.obs.snapshot import observability_snapshot, to_json, to_prometheus_text
from tests.conftest import METHOD_OPTIONS, make_corpus


def _build(tmp_path=None, shards=4, threads=1, **kwargs):
    corpus = make_corpus(random.Random(97), num_docs=40, vocabulary=25)
    index = SVRTextIndex(
        method="chunk", shards=shards, threads=threads, cache_pages=256,
        path=None if tmp_path is None else str(tmp_path / "idx"),
        **METHOD_OPTIONS["chunk"], **kwargs,
    )
    for doc_id, terms, score in corpus:
        index.add_document_terms(doc_id, terms, score)
    index.finalize()
    return index


class TestSnapshot:
    def test_snapshot_shape_and_json(self):
        index = _build(list_cache_pages=8)
        try:
            index.search(["w001", "w004"], k=5)
            snapshot = index.observability()
            assert snapshot["engine"]["method"] == "chunk"
            assert snapshot["engine"]["shards"] == 4
            assert snapshot["metrics"]["counters"]["query.count"] == 1.0
            assert len(snapshot["shard_io"]) == 4
            assert snapshot["list_cache"]["budget_bytes"] > 0
            assert len(snapshot["shard_health"]) == 4
            json.loads(to_json(snapshot))  # round-trips as JSON
        finally:
            index.close()

    def test_snapshot_performs_no_storage_accesses(self):
        from tests.helpers import category_fingerprint

        index = _build()
        try:
            index.search(["w001"], k=5)
            before = category_fingerprint(index.env)
            index.observability()
            assert category_fingerprint(index.env) == before
        finally:
            index.close()

    def test_snapshot_includes_wal_on_durable_engines(self, tmp_path):
        index = _build(tmp_path)
        try:
            index.checkpoint()
            snapshot = index.observability()
            assert len(snapshot["wal"]) == 4
            assert all(row["batches_committed"] >= 1 for row in snapshot["wal"])
        finally:
            index.close()

    def test_snapshot_rejects_bare_objects(self):
        with pytest.raises(ObservabilityError):
            observability_snapshot(object())


class TestPrometheusExport:
    def test_counters_gauges_histograms_render(self):
        index = _build()
        try:
            index.search(["w001", "w004"], k=5)
            index.router.metrics.set_gauge("bench.ops", 7.0)
            text = to_prometheus_text(index)
            assert "# TYPE query_count counter" in text
            assert "query_count 1.0" in text
            assert "# TYPE bench_ops gauge" in text
            assert "# TYPE query_latency_ms histogram" in text
            assert 'query_latency_ms_bucket{le="+Inf"} 1' in text
            assert "query_latency_ms_count 1" in text
        finally:
            index.close()

    def test_labels_render_prometheus_style(self):
        index = _build(threads=4)
        try:
            index.search(["w001", "w004"], k=5, conjunctive=False)
            text = to_prometheus_text(index)
            assert 'pool_hit_rate{shard="3"}' in text
        finally:
            index.close()

    def test_help_lines_accompany_every_type_line(self):
        index = _build(threads=4)
        try:
            index.search(["w001"], k=5)
            text = to_prometheus_text(index)
        finally:
            index.close()
        typed = {line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE ")}
        helped = {line.split()[2] for line in text.splitlines()
                  if line.startswith("# HELP ")}
        assert typed and typed == helped

    def test_adversarial_label_values_escape_and_round_trip(self):
        index = _build()
        try:
            hostile = 'a\\b"c\nd'
            index.router.metrics.set_gauge("custom.gauge", 1.0, tag=hostile)
            text = to_prometheus_text(index)
        finally:
            index.close()
        line = next(l for l in text.splitlines()
                    if l.startswith("custom_gauge{"))
        # One physical line: the newline travelled as the \n escape.
        assert line == 'custom_gauge{tag="a\\\\b\\"c\\nd"} 1.0'
        # Round-trip: un-escaping per the exposition format recovers the
        # original value (escapes are unambiguous, decoded left-to-right).
        raw = line[len('custom_gauge{tag="'):line.rindex('"')]
        decoded, i = [], 0
        while i < len(raw):
            if raw[i] == "\\":
                decoded.append({"\\": "\\", '"': '"', "n": "\n"}[raw[i + 1]])
                i += 2
            else:
                decoded.append(raw[i])
                i += 1
        assert "".join(decoded) == hostile


class TestBenchExport:
    def test_operation_metrics_export_into_registry(self):
        from repro.bench.metrics import OperationMetrics
        from repro.obs.metrics import MetricsRegistry

        metrics = OperationMetrics(label="queries")
        metrics.record(wall_ms=10.0, pages_read=4)
        metrics.extra["p99_query_ms"] = 12.5
        registry = MetricsRegistry()
        metrics.export_into(registry)
        assert registry.gauge_value("bench.operations", bench="queries") == 1.0
        assert registry.gauge_value("bench.pages_read", bench="queries") == 4.0
        assert registry.gauge_value("bench.extra.p99_query_ms",
                                    bench="queries") == 12.5
        # Re-export after more operations overwrites instead of double-counting.
        metrics.record(wall_ms=20.0)
        metrics.export_into(registry)
        assert registry.gauge_value("bench.operations", bench="queries") == 2.0

    def test_service_result_records_tail_latencies(self):
        from repro.bench.metrics import OperationMetrics
        from repro.workloads.service import ServiceLoadResult

        result = ServiceLoadResult(
            queries_run=3, wall_seconds=1.0,
            query_latencies_ms=[1.0, 2.0, 100.0],
            window_latencies_ms=[5.0],
        )
        metrics = OperationMetrics()
        result.record_into(metrics)
        assert metrics.extra["p999_query_ms"] == 100.0
        assert metrics.extra["max_query_ms"] == 100.0
        assert metrics.extra["p999_window_ms"] == 5.0
        assert metrics.extra["max_window_ms"] == 5.0


class TestCLI:
    def test_demo_text(self, capsys):
        assert dump_main(["--demo"]) == 0
        out = capsys.readouterr().out
        assert "engine: method=chunk" in out
        assert "query.count = 200" in out

    def test_demo_json(self, capsys):
        assert dump_main(["--demo", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["metrics"]["counters"]["query.count"] == 200.0

    def test_demo_prom(self, capsys):
        assert dump_main(["--demo", "--format", "prom"]) == 0
        assert "# TYPE query_count counter" in capsys.readouterr().out

    def test_path_dump_leaves_directory_recoverable(self, tmp_path, capsys):
        index = _build(tmp_path)
        index.search(["w001", "w004"], k=5)
        index.commit()
        doc_count = index.document_count()
        index.close()

        assert dump_main(["--path", str(tmp_path / "idx"),
                          "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["engine"]["durable"] is True
        assert len(snapshot["wal"]) == 4

        # The dump must not have mutated the durable state.
        reopened = SVRTextIndex.open(str(tmp_path / "idx"))
        try:
            assert reopened.document_count() == doc_count
            assert reopened.search(["w001", "w004"], k=5).results
        finally:
            reopened.close()
