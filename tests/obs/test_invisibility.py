"""Accounting invisibility: tracing must never change an I/O fingerprint.

The observability layer's hard contract is that it only *reads* existing
counters and clocks — it never touches a page.  This suite pins that two
ways:

* **matrix** — the same probe workload (queries, sequential updates, a
  batched window, insert/delete/content-update) over all six methods x
  shards {1, 4} x threads {1, 4} produces *bit-identical* buffer-pool and
  disk counter fingerprints with tracing enabled and disabled, and
  identical answers;
* **experiments** — the fig7 / table1 harnesses report identical I/O
  columns with ``set_tracing(True)`` (wall-clock columns are excluded —
  time is the one thing tracing legitimately measures).
"""

from __future__ import annotations

import random

import pytest

from repro.core.text_index import SVRTextIndex
from repro.obs.trace import SLOW_QUERIES, set_tracing
from tests.conftest import METHOD_OPTIONS, SVR_ONLY_METHODS, TERMSCORE_METHODS, make_corpus
from tests.helpers import category_fingerprint

ALL_METHODS = SVR_ONLY_METHODS + TERMSCORE_METHODS

_PROBES = (
    (["w001", "w004"], 3, True),
    (["w001", "w004"], 10, True),
    (["w002", "w007", "w011"], 5, True),
    (["w003"], 10, False),
    (["w005", "w009"], 10, False),
)


def _run_probe_workload(method: str, shards: int, threads: int):
    """Build + query + write workload; returns (answers, fingerprint)."""
    corpus = make_corpus(random.Random(97), num_docs=40, vocabulary=25)
    index = SVRTextIndex(method=method, shards=shards, threads=threads,
                         cache_pages=256, **METHOD_OPTIONS[method])
    try:
        for doc_id, terms, score in corpus:
            index.add_document_terms(doc_id, terms, score)
        index.finalize()
        answers = []

        def probe():
            for keywords, k, conjunctive in _PROBES:
                response = index.search(keywords, k=k, conjunctive=conjunctive)
                answers.append([(r.doc_id, r.score) for r in response.results])

        probe()
        rng = random.Random(5)
        live = [doc_id for doc_id, _terms, _score in corpus]
        for _ in range(6):
            index.update_score(rng.choice(live),
                              round(rng.uniform(0.0, 1000.0), 2))
        probe()
        index.apply_score_updates(
            [(rng.choice(live), round(rng.uniform(0.0, 1000.0), 2))
             for _ in range(8)]
        )
        index.insert_document_terms(900, ["w001", "w004", "w019"], 512.0)
        index.update_content(900, "w002 w004 w007")
        index.delete_document(live[0])
        probe()
        return answers, category_fingerprint(index.env)
    finally:
        index.close()


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_tracing_is_accounting_invisible(method, shards, threads):
    previous = set_tracing(False)
    try:
        baseline_answers, baseline_fp = _run_probe_workload(method, shards, threads)
        set_tracing(True)
        traced_answers, traced_fp = _run_probe_workload(method, shards, threads)
    finally:
        set_tracing(previous)
        SLOW_QUERIES.clear()
    assert traced_answers == baseline_answers
    assert traced_fp == baseline_fp


def test_metrics_registry_records_without_tracing():
    """The always-on registry must see the workload even when tracing is off."""
    corpus = make_corpus(random.Random(97), num_docs=40, vocabulary=25)
    index = SVRTextIndex(method="chunk", shards=4, threads=1,
                         cache_pages=256, **METHOD_OPTIONS["chunk"])
    try:
        for doc_id, terms, score in corpus:
            index.add_document_terms(doc_id, terms, score)
        index.finalize()
        for keywords, k, conjunctive in _PROBES:
            index.search(keywords, k=k, conjunctive=conjunctive)
        metrics = index.router.metrics
        assert metrics.counter_value("query.count") == len(_PROBES)
        hist = metrics.histogram("query.latency_ms")
        assert hist is not None and hist.count == len(_PROBES)
        assert metrics.counter_value("query.postings_scanned") > 0
    finally:
        index.close()


def test_list_cache_counts_aggregate_per_shard():
    """Satellite: list-cache hit/miss counts land on race-free shard series."""
    corpus = make_corpus(random.Random(97), num_docs=40, vocabulary=25)
    index = SVRTextIndex(method="chunk", shards=4, threads=4,
                         cache_pages=256, list_cache_pages=8,
                         blocked_postings=True,  # only blocked lists are cached
                         **METHOD_OPTIONS["chunk"])
    try:
        for doc_id, terms, score in corpus:
            index.add_document_terms(doc_id, terms, score)
        index.finalize()
        for _ in range(2):  # second pass serves from the cache
            for keywords, k, conjunctive in _PROBES:
                index.search(keywords, k=k, conjunctive=conjunctive)
        metrics = index.router.metrics
        cache = index.index.list_cache
        registry_hits = sum(
            metrics.counter_value("list_cache.hits", shard=shard)
            for shard in range(4)
        )
        registry_misses = sum(
            metrics.counter_value("list_cache.misses", shard=shard)
            for shard in range(4)
        )
        assert registry_hits == cache.stats.hits > 0
        assert registry_misses == cache.stats.misses > 0
    finally:
        index.close()


# ---------------------------------------------------------------------------
# Experiment harnesses: fig7 / table1 fingerprints under tracing
# ---------------------------------------------------------------------------

_FIG7_WALL_COLUMNS = ("avg_update_ms", "avg_query_ms")
_TABLE1_WALL_COLUMNS = ("build_seconds",)


def _strip(rows, wall_columns):
    return [
        {key: value for key, value in row.items() if key not in wall_columns}
        for row in rows
    ]


def test_fig7_io_columns_identical_under_tracing():
    from repro.bench.experiments import fig7_varying_updates
    from repro.bench.runner import BenchScale

    scale = BenchScale.smoke()
    previous = set_tracing(False)
    try:
        baseline = fig7_varying_updates(scale, update_counts=(0, 100))
        set_tracing(True)
        traced = fig7_varying_updates(scale, update_counts=(0, 100))
    finally:
        set_tracing(previous)
        SLOW_QUERIES.clear()
    assert _strip(traced, _FIG7_WALL_COLUMNS) == _strip(baseline, _FIG7_WALL_COLUMNS)


def test_table1_sizes_identical_under_tracing():
    from repro.bench.experiments import table1_index_sizes
    from repro.bench.runner import BenchScale

    scale = BenchScale.smoke()
    previous = set_tracing(False)
    try:
        baseline = table1_index_sizes(scale)
        set_tracing(True)
        traced = table1_index_sizes(scale)
    finally:
        set_tracing(previous)
    assert _strip(traced, _TABLE1_WALL_COLUMNS) == _strip(baseline, _TABLE1_WALL_COLUMNS)
