"""Storage-engine microbenchmarks with a committed performance trajectory.

Unlike the ``bench_fig*``/``bench_table*`` modules, which reproduce the paper's
figures, this script times the *shared storage engine* directly: the B+-tree
insert/update path every index method bottoms out in, the long-list page
decoding path every query scan bottoms out in, and the bulk build that writes
those lists.  Results are appended to
``BENCH_storage_micro.json`` at the repository root so each PR leaves a
timing trajectory future PRs must not regress.

Usage::

    PYTHONPATH=src python benchmarks/bench_storage_micro.py              # print only
    PYTHONPATH=src python benchmarks/bench_storage_micro.py --append \
        --label my-change                                                # record
    PYTHONPATH=src python benchmarks/bench_storage_micro.py --check      # CI gate

``--check`` compares the freshly measured throughput against the most recent
committed entry for the same scale and exits non-zero when any benchmark is
more than ``--tolerance`` (default 30%) slower — the CI smoke gate.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.posting import (  # noqa: E402
    encode_blocked_chunk_runs,
    encode_blocked_id_postings,
    encode_blocked_scored_postings,
    iter_blocked_chunk_postings_lazy,
    iter_blocked_id_postings_lazy,
    iter_blocked_scored_postings_lazy,
)
from repro.storage.environment import StorageEnvironment  # noqa: E402

RESULTS_PATH = _REPO_ROOT / "BENCH_storage_micro.json"

#: (num_postings_per_term, num_terms, num_updates, decode_postings,
#:  macro_docs = corpus size of the query-path macrobenchmarks)
SCALES = {
    "smoke": dict(docs=2000, terms=40, updates=2000, decode_postings=120_000,
                  macro_docs=250),
    "full": dict(docs=8000, terms=120, updates=10_000, decode_postings=400_000,
                 macro_docs=1000),
}


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


def bench_btree_insert(docs: int, terms: int, **_: object) -> dict:
    """Bulk-build the Score method's clustered list: (term, -score, doc_id) keys.

    This is the insert-heavy path of every index build; per-insert costs in
    ``BPlusTree`` dominate it.
    """
    env = StorageEnvironment(cache_pages=8192, page_size=4096)
    store = env.create_kvstore("bench.scorelists")
    rng = random.Random(7)
    scores = [rng.uniform(0.0, 1000.0) for _ in range(docs)]
    operations = 0
    start = time.perf_counter()
    for doc_id in range(docs):
        score = scores[doc_id]
        for term in range(terms // 8):
            store.put((f"t{(doc_id + term) % terms:04d}", -score, doc_id), None)
            operations += 1
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "operations": operations}


def bench_btree_score_update(docs: int, terms: int, updates: int, **_: object) -> dict:
    """The Score-method update path: re-key one posting per distinct term.

    Each simulated score update deletes the posting under the old score key and
    reinserts it under the new one — the delete+insert storm that makes the
    Score method orders of magnitude slower than the others (Fig 7), and the
    insert/update microbench the PR targets aim at.
    """
    env = StorageEnvironment(cache_pages=8192, page_size=4096)
    store = env.create_kvstore("bench.scorelists")
    rng = random.Random(11)
    scores = [rng.uniform(0.0, 1000.0) for _ in range(docs)]
    doc_terms = {
        doc_id: [f"t{(doc_id + k) % terms:04d}" for k in range(terms // 8)]
        for doc_id in range(docs)
    }
    for doc_id in range(docs):
        for term in doc_terms[doc_id]:
            store.put((term, -scores[doc_id], doc_id), None)
    operations = 0
    start = time.perf_counter()
    for update in range(updates):
        doc_id = rng.randrange(docs)
        old_score = scores[doc_id]
        new_score = max(0.0, old_score + rng.uniform(-50.0, 50.0))
        scores[doc_id] = new_score
        for term in doc_terms[doc_id]:
            store.delete_if_present((term, -old_score, doc_id))
            store.put((term, -new_score, doc_id), None)
            operations += 2
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "operations": operations}


def bench_btree_batch_update(docs: int, terms: int, updates: int, **_: object) -> dict:
    """The batched Score-method update path: bulk re-keying via sorted passes.

    Applies the same update stream as :func:`bench_btree_score_update` but in
    windows: each window's delete and insert keys are coalesced per document,
    sorted, and applied through ``delete_many``/``insert_many``, which descend
    once per leaf run instead of once per key.  ``operations`` counts the same
    logical delete+insert pairs as the per-update bench, so the ops/s ratio of
    the two entries is the batching speedup the trajectory tracks.
    """
    env = StorageEnvironment(cache_pages=8192, page_size=4096)
    store = env.create_kvstore("bench.scorelists")
    rng = random.Random(11)
    scores = [rng.uniform(0.0, 1000.0) for _ in range(docs)]
    doc_terms = {
        doc_id: [f"t{(doc_id + k) % terms:04d}" for k in range(terms // 8)]
        for doc_id in range(docs)
    }
    for doc_id in range(docs):
        for term in doc_terms[doc_id]:
            store.put((term, -scores[doc_id], doc_id), None)
    window = 1000
    operations = 0
    start = time.perf_counter()
    for base in range(0, updates, window):
        first_old: dict[int, float] = {}
        final: dict[int, float] = {}
        for _ in range(min(window, updates - base)):
            doc_id = rng.randrange(docs)
            old_score = scores[doc_id]
            new_score = max(0.0, old_score + rng.uniform(-50.0, 50.0))
            scores[doc_id] = new_score
            first_old.setdefault(doc_id, old_score)
            final[doc_id] = new_score
            operations += 2 * len(doc_terms[doc_id])
        deletes = []
        inserts = []
        for doc_id, new_score in final.items():
            old_score = first_old[doc_id]
            if old_score != new_score:
                for term in doc_terms[doc_id]:
                    deletes.append((term, -old_score, doc_id))
                    inserts.append((term, -new_score, doc_id))
        deletes.sort()
        inserts.sort()
        store.delete_many(deletes, ignore_missing=True)
        store.put_many((key, None) for key in inserts)
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "operations": operations}


def bench_score_list_rekey(docs: int, terms: int, updates: int, **_: object) -> dict:
    """The Score method's single-update path as the index runs it.

    The update stream of :func:`bench_btree_score_update`, over a store with
    the Score method's codecs (``(str, float64, uint32)`` keys, no value):
    each update re-keys the document's posting in every term's list through
    one :meth:`~repro.storage.kvstore.KVStore.rekey` call.  ``operations``
    counts re-keyed postings, so the rate is postings/s.
    """
    env = StorageEnvironment(cache_pages=8192, page_size=4096)
    store = env.create_kvstore("bench.scorelists", key_codec="sfu", value_codec="none")
    rng = random.Random(11)
    scores = [rng.uniform(0.0, 1000.0) for _ in range(docs)]
    doc_terms = {
        doc_id: sorted(f"t{(doc_id + k) % terms:04d}" for k in range(terms // 8))
        for doc_id in range(docs)
    }
    for doc_id in range(docs):
        for term in doc_terms[doc_id]:
            store.put((term, -scores[doc_id], doc_id), None)
    operations = 0
    start = time.perf_counter()
    for _update in range(updates):
        doc_id = rng.randrange(docs)
        old_score = scores[doc_id]
        new_score = max(0.0, old_score + rng.uniform(-50.0, 50.0))
        scores[doc_id] = new_score
        operations += store.rekey(doc_terms[doc_id], (-old_score, doc_id),
                                  (-new_score, doc_id))
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "operations": operations}


def bench_decode_id_list(decode_postings: int, **_: object) -> dict:
    """Full lazy scan of one long ID-ordered inverted list, term scores included.

    The list is written to a heap file one block per page and decoded from
    the heap file's page iterator — the exact code path of the
    ID/ID-TermScore query scan.  The scan yields one block per page, as the
    ID methods consume them; ``operations`` still counts postings, so the
    rate stays postings/s.
    """
    env = StorageEnvironment(cache_pages=65536, page_size=4096)
    heap = env.create_heapfile("bench.longlists")
    doc_ids = [3 * index + 1 for index in range(decode_postings)]
    handle = heap.write(encode_blocked_id_postings(doc_ids, [0.25] * decode_postings,
                                                   page_size=4096))
    rounds = 3
    operations = 0
    start = time.perf_counter()
    for _ in range(rounds):
        pages = heap.iter_pages(handle)
        for _last_doc_id, doc_ids, _term_scores in iter_blocked_id_postings_lazy(pages):
            operations += len(doc_ids)
    elapsed = time.perf_counter() - start
    checksum = doc_ids[-1]
    return {"seconds": elapsed, "operations": operations, "checksum": checksum}


def bench_decode_chunk_list(decode_postings: int, **_: object) -> dict:
    """Full lazy scan of one chunked long list (the Chunk query scan).

    The scan yields page-local chunk fragments, as the Chunk methods consume
    them; ``operations`` still counts postings, so the rate stays postings/s.
    """
    env = StorageEnvironment(cache_pages=65536, page_size=4096)
    heap = env.create_heapfile("bench.chunklists")
    chunk_size = 512
    runs = []
    doc_id = 1
    for chunk_id in range(decode_postings // chunk_size, 0, -1):
        runs.append((chunk_id, [doc_id + 2 * i for i in range(chunk_size)], None))
        doc_id += 2 * chunk_size
    handle = heap.write(encode_blocked_chunk_runs(runs, page_size=4096))
    rounds = 3
    operations = 0
    start = time.perf_counter()
    for _ in range(rounds):
        pages = heap.iter_pages(handle)
        for _chunk_id, doc_ids, _term_scores in iter_blocked_chunk_postings_lazy(pages):
            operations += len(doc_ids)
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "operations": operations}


def bench_decode_scored_list(decode_postings: int, **_: object) -> dict:
    """Full lazy scan of one score-ordered long list (the Score-Threshold
    query scan).

    The scan yields one block per page, as the Score-Threshold merge consumes them;
    ``operations`` still counts postings, so the rate stays postings/s.
    """
    env = StorageEnvironment(cache_pages=65536, page_size=4096)
    heap = env.create_heapfile("bench.scoredlists")
    doc_ids = [(7 * index) % decode_postings + 1 for index in range(decode_postings)]
    scores = [float(decode_postings - index) for index in range(decode_postings)]
    handle = heap.write(encode_blocked_scored_postings(doc_ids, scores, page_size=4096))
    rounds = 3
    operations = 0
    start = time.perf_counter()
    for _ in range(rounds):
        pages = heap.iter_pages(handle)
        for _bound, doc_ids, _scores, _term_scores in iter_blocked_scored_postings_lazy(pages):
            operations += len(doc_ids)
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "operations": operations}


def bench_build_long_lists(macro_docs: int, **_: object) -> dict:
    """The bulk build of the Chunk, ID and Score-Threshold long lists.

    Each method stages the macrobench corpus, and its ``finalize`` sorts the
    staged documents once in list order, gathers each term's columns, encodes
    them one block per page and writes them to the heap file.  Only
    ``finalize`` is timed, over three fresh builds per method;
    ``operations`` counts the postings written, so the rate is postings/s.
    """
    from repro.core.indexes.registry import create_index
    from repro.text.documents import DocumentStore
    from repro.workloads.synthetic import SyntheticCorpusConfig, generate_corpus

    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_docs=macro_docs, terms_per_doc=40,
            num_distinct_terms=macro_docs * 4, seed=7,
        )
    )
    methods = (("chunk", {"chunk_ratio": 2.2, "min_chunk_size": 10}), ("id", {}),
               ("score_threshold", {}))
    elapsed = 0.0
    operations = 0
    for _ in range(3):
        for method, options in methods:
            index = create_index(method, StorageEnvironment(cache_pages=4096, page_size=512),
                                 DocumentStore(), **options)
            for document in corpus.iter_documents():
                index.add_document(document.doc_id, document.score, terms=document.terms)
            start = time.perf_counter()
            index.finalize()
            elapsed += time.perf_counter() - start
            operations += index.update_stats.long_list_postings_written
    return {"seconds": elapsed, "operations": operations}


def bench_prefix_scan(docs: int, terms: int, **_: object) -> dict:
    """Short-list prefix scans: every method's query path over (term, ...) keys."""
    env = StorageEnvironment(cache_pages=8192, page_size=4096)
    store = env.create_kvstore("bench.shortlists")
    for doc_id in range(docs):
        for k in range(terms // 8):
            term = f"t{(doc_id + k) % terms:04d}"
            store.put((term, doc_id), ("update", 0.5))
    operations = 0
    start = time.perf_counter()
    for rep in range(3):
        for term_id in range(terms):
            for _key, _value in store.prefix_items((f"t{term_id:04d}",)):
                operations += 1
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "operations": operations}


def _build_macro_index(shards: int, macro_docs: int, path: "str | None" = None,
                       threads: int = 1, list_cache_pages: int = 0):
    """A Chunk-method text index over a synthetic corpus (the macrobench rig)."""
    from repro.core.text_index import SVRTextIndex
    from repro.workloads.synthetic import SyntheticCorpusConfig, generate_corpus

    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_docs=macro_docs, terms_per_doc=40,
            num_distinct_terms=macro_docs * 4, seed=7,
        )
    )
    index = SVRTextIndex(
        method="chunk", shards=shards, threads=threads, cache_pages=4096,
        page_size=512, chunk_ratio=2.2, min_chunk_size=10, path=path,
        list_cache_pages=list_cache_pages,
    )
    for document in corpus.iter_documents():
        index.add_document_terms(document.doc_id, document.terms, document.score)
    index.finalize()
    return index, corpus


def _macro_queries(corpus, count: int = 24):
    from repro.workloads.queries import QueryWorkload, QueryWorkloadConfig

    config = QueryWorkloadConfig(num_queries=count, selectivity="unselective",
                                 k=10, seed=23)
    frequent = corpus.frequent_terms(
        max(config.candidate_pool_size(corpus.config.num_distinct_terms), 2)
    )
    return QueryWorkload(config, frequent,
                         vocabulary_size=corpus.config.num_distinct_terms).generate()


def bench_query_macro(macro_docs: int, **_: object) -> dict:
    """End-to-end cold-cache top-k queries through the single-pool engine.

    The paper's §5.2 query path in one number: drop the long-list pages, run a
    conjunctive top-10 query, repeat over an unselective workload.  This is
    the macrobench the ROADMAP asked for to keep codec/engine wins honest at
    the query level, not just in isolated decode loops.
    """
    index, corpus = _build_macro_index(shards=1, macro_docs=macro_docs)
    queries = _macro_queries(corpus)
    for query in queries:  # warm the Score table / short lists
        index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
    rounds = 3
    operations = 0
    start = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            index.drop_long_list_cache()
            index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
            operations += 1
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "operations": operations}


def bench_file_backed_query_macro(macro_docs: int, **_: object) -> dict:
    """Cold-cache top-k queries through the durable file-backed engine.

    The same rig as :func:`bench_query_macro`, but the index lives on a
    :class:`~repro.storage.persistence.file_disk.FileBackedDisk`: the build is
    checkpointed so the long-list pages reside in ``pages.dat``, and every
    cold-cache query pays real file reads through the buffer pool.  The ratio
    of this entry to ``query_macro`` is the end-to-end durability tax the
    trajectory tracks (the simulated I/O counters are identical by
    construction — only wall-clock differs).
    """
    import shutil
    import tempfile

    storage_dir = tempfile.mkdtemp(prefix="repro-bench-file-")
    try:
        index, corpus = _build_macro_index(
            shards=1, macro_docs=macro_docs, path=storage_dir + "/index"
        )
        index.checkpoint()  # long lists now live in pages.dat, not the WAL
        queries = _macro_queries(corpus)
        for query in queries:  # warm the Score table / short lists
            index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
        rounds = 3
        operations = 0
        start = time.perf_counter()
        for _ in range(rounds):
            for query in queries:
                index.drop_long_list_cache()
                index.search(query.keywords, k=query.k,
                             conjunctive=query.conjunctive)
                operations += 1
        elapsed = time.perf_counter() - start
        index.close()
    finally:
        shutil.rmtree(storage_dir, ignore_errors=True)
    return {"seconds": elapsed, "operations": operations}


def bench_fault_overhead(macro_docs: int, **_: object) -> dict:
    """Cost of the fault-injection harness on the hot file-backed query path.

    Two interleaved passes over the :func:`bench_file_backed_query_macro` rig:
    one with no injector attached (production — every site takes the
    ``fault_injector is None`` fast path) and one with an *inert* injector
    attached (an enabled plan whose only spec is scheduled far past any
    occurrence count, so every site pays the full roll/bookkeeping slow path
    without ever faulting).  ``seconds``/``operations`` report the disabled
    pass — directly comparable to ``file_backed_query_macro`` across
    trajectory entries, which is how the "<5% with injection disabled" budget
    is tracked — and ``extra["attached_inert_vs_disabled"]`` reports the
    attached/disabled wall-clock ratio measured in this run (the worst-case
    ceiling: a *firing* plan costs more, a detached one costs the fast path).

    ``extra["disabled_vs_query_macro"]`` anchors the entry to a *same-run*
    memory-backed :func:`bench_query_macro` measurement: comparing two
    separate trajectory entries drifted with every unrelated macro-path
    change, which muddied the budget check; measuring both sides in one
    invocation removes that confound.
    """
    import shutil
    import tempfile

    from repro.storage.faults import FaultPlan, FaultSpec

    inert = FaultPlan(specs=(FaultSpec(op="read", kind="transient", at=10**15),))
    storage_dir = tempfile.mkdtemp(prefix="repro-bench-fault-")
    try:
        index, corpus = _build_macro_index(
            shards=1, macro_docs=macro_docs, path=storage_dir + "/index"
        )
        index.checkpoint()  # long lists now live in pages.dat, not the WAL
        queries = _macro_queries(corpus)
        for query in queries:  # warm the Score table / short lists
            index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
        rounds = 3
        operations = 0
        disabled = attached = 0.0
        for _ in range(rounds):
            index.clear_faults()
            start = time.perf_counter()
            for query in queries:
                index.drop_long_list_cache()
                index.search(query.keywords, k=query.k,
                             conjunctive=query.conjunctive)
                operations += 1
            disabled += time.perf_counter() - start
            index.inject_faults(inert)
            start = time.perf_counter()
            for query in queries:
                index.drop_long_list_cache()
                index.search(query.keywords, k=query.k,
                             conjunctive=query.conjunctive)
            attached += time.perf_counter() - start
        index.clear_faults()
        index.close()
    finally:
        shutil.rmtree(storage_dir, ignore_errors=True)
    ratio = attached / disabled if disabled else 0.0
    macro = bench_query_macro(macro_docs)
    macro_ops_per_sec = macro["operations"] / macro["seconds"]
    disabled_ops_per_sec = operations / disabled if disabled else 0.0
    return {
        "seconds": disabled,
        "operations": operations,
        "extra": {
            "attached_inert_vs_disabled": round(ratio, 3),
            "disabled_vs_query_macro": round(
                disabled_ops_per_sec / macro_ops_per_sec, 3
            ) if macro_ops_per_sec else 0.0,
        },
    }


def bench_obs_overhead(macro_docs: int, **_: object) -> dict:
    """Cost of the observability layer on the hot memory-backed query path.

    Two interleaved passes over the :func:`bench_query_macro` rig: one with
    tracing disabled (production default — every ``span()`` takes the
    ``tracing_enabled()`` fast path and only the always-on metrics registry
    records) and one under ``set_tracing(True)`` (full span trees, per-term
    slow-query attribution, block-scan spans).  ``seconds``/``operations``
    report the untraced pass — directly comparable to ``query_macro`` across
    trajectory entries — and ``extra["traced_vs_untraced"]`` reports the
    traced/untraced wall-clock ratio measured in this run (the acceptance
    budget is <= 1.05).

    ``extra["untraced_vs_query_macro"]`` anchors the entry to a *same-run*
    :func:`bench_query_macro` measurement, mirroring ``fault_overhead``:
    same-run anchoring avoids the drift that comparing two separate
    trajectory entries would reintroduce.
    """
    from repro.obs.trace import SLOW_QUERIES, set_tracing

    index, corpus = _build_macro_index(shards=1, macro_docs=macro_docs)
    queries = _macro_queries(corpus)
    for query in queries:  # warm the Score table / short lists
        index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
    rounds = 3
    operations = 0
    untraced = traced = 0.0
    previous = set_tracing(False)
    try:
        for _ in range(rounds):
            set_tracing(False)
            start = time.perf_counter()
            for query in queries:
                index.drop_long_list_cache()
                index.search(query.keywords, k=query.k,
                             conjunctive=query.conjunctive)
                operations += 1
            untraced += time.perf_counter() - start
            set_tracing(True)
            start = time.perf_counter()
            for query in queries:
                index.drop_long_list_cache()
                index.search(query.keywords, k=query.k,
                             conjunctive=query.conjunctive)
            traced += time.perf_counter() - start
    finally:
        set_tracing(previous)
        SLOW_QUERIES.clear()
    index.close()
    ratio = traced / untraced if untraced else 0.0
    macro = bench_query_macro(macro_docs)
    macro_ops_per_sec = macro["operations"] / macro["seconds"]
    untraced_ops_per_sec = operations / untraced if untraced else 0.0
    return {
        "seconds": untraced,
        "operations": operations,
        "extra": {
            "traced_vs_untraced": round(ratio, 3),
            "untraced_vs_query_macro": round(
                untraced_ops_per_sec / macro_ops_per_sec, 3
            ) if macro_ops_per_sec else 0.0,
        },
    }


def bench_explain_overhead(macro_docs: int, **_: object) -> dict:
    """Cost of EXPLAIN / EXPLAIN ANALYZE relative to the plain query path.

    Three interleaved passes over the :func:`bench_query_macro` rig: the
    plain cold-cache query pass (reported as ``seconds``/``operations``,
    directly comparable to ``query_macro``), a plan-only ``explain()`` pass
    (peek reads only — no query runs, so it should be *cheaper* than the
    query it describes), and an ``explain(analyze=True)`` pass (plan + the
    real query under tracing + actuals grafting — the diagnostic mode, where
    a small multiple is acceptable).  ``extra`` records both wall-clock
    ratios against the plain pass measured in this run, so the trajectory
    catches EXPLAIN quietly growing storage reads or analyze regressing past
    its diagnostic budget.
    """
    from repro.obs.trace import SLOW_QUERIES

    index, corpus = _build_macro_index(shards=1, macro_docs=macro_docs)
    queries = _macro_queries(corpus)
    for query in queries:  # warm the Score table / short lists
        index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
    rounds = 3
    operations = 0
    plain = explain_s = analyze_s = 0.0
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            for query in queries:
                index.drop_long_list_cache()
                index.search(query.keywords, k=query.k,
                             conjunctive=query.conjunctive)
                operations += 1
            plain += time.perf_counter() - start
            start = time.perf_counter()
            for query in queries:
                index.drop_long_list_cache()
                index.explain(query.keywords, k=query.k,
                              conjunctive=query.conjunctive)
            explain_s += time.perf_counter() - start
            start = time.perf_counter()
            for query in queries:
                index.drop_long_list_cache()
                index.explain(query.keywords, k=query.k,
                              conjunctive=query.conjunctive, analyze=True)
            analyze_s += time.perf_counter() - start
    finally:
        SLOW_QUERIES.clear()  # analyze traces can cross the slow threshold
    index.close()
    return {
        "seconds": plain,
        "operations": operations,
        "extra": {
            "explain_vs_query": round(explain_s / plain, 3) if plain else 0.0,
            "analyze_vs_query": round(analyze_s / plain, 3) if plain else 0.0,
        },
    }


def bench_hot_query_under_writes(macro_docs: int, **_: object) -> dict:
    """Warm top-k queries with the hot-term list cache on, between writes.

    The Chunk rig with ``list_cache_pages=1024`` of ``cache_pages=4096``
    alternates one 32-update window with one query of the unselective
    workload.  Writes never touch a long list, so decoded lists stay cached
    across the windows.  ``seconds`` times the queries only;
    ``extra["cache_hit_rate"]`` is the cache's hit rate over the timed loop.
    """
    from repro.workloads.updates import UpdateWorkload, UpdateWorkloadConfig

    index, corpus = _build_macro_index(shards=1, macro_docs=macro_docs,
                                       list_cache_pages=1024)
    queries = _macro_queries(corpus)
    rounds, window = 4, 32
    updates = UpdateWorkload(
        UpdateWorkloadConfig(num_updates=window * rounds * len(queries), seed=11),
        corpus.scores(),
    ).generate_list()
    scores = corpus.scores()
    for query in queries:  # warm the cache and the Score table
        index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
    stats = index.index.list_cache.stats
    hits, misses = stats.hits, stats.misses
    elapsed = 0.0
    operations = 0
    for _ in range(rounds):
        for query in queries:
            batch = updates[operations * window:(operations + 1) * window]
            for update in batch:
                scores[update.doc_id] = update.apply_to(scores[update.doc_id])
            index.apply_score_updates(
                [(update.doc_id, scores[update.doc_id]) for update in batch])
            start = time.perf_counter()
            index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
            elapsed += time.perf_counter() - start
            operations += 1
    opens = stats.hits - hits + stats.misses - misses
    index.close()
    return {
        "seconds": elapsed,
        "operations": operations,
        "extra": {"cache_hit_rate": round((stats.hits - hits) / opens, 3)
                  if opens else 0.0},
    }


def bench_sharded_query_throughput(macro_docs: int, **_: object) -> dict:
    """Mixed multi-client traffic against the 4-shard term-partitioned engine.

    Four simulated clients interleave top-k queries with batched score-update
    windows through ``MultiClientDriver`` — the sharded engine's intended
    workload.  ``operations`` counts queries + updates, so the entry tracks
    end-to-end mixed-traffic throughput across PRs.
    """
    from repro.workloads.multiclient import MultiClientConfig, MultiClientDriver
    from repro.workloads.updates import UpdateWorkload, UpdateWorkloadConfig

    index, corpus = _build_macro_index(shards=4, macro_docs=macro_docs)
    queries = _macro_queries(corpus)
    updates = UpdateWorkload(
        UpdateWorkloadConfig(num_updates=40 * len(queries), seed=11),
        corpus.scores(),
    ).generate_list()
    driver = MultiClientDriver(
        MultiClientConfig(num_clients=4, query_fraction=0.5, batch_window=64,
                          seed=31),
        queries, updates,
    )
    start = time.perf_counter()
    result = driver.run(index)
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "operations": result.queries_run + result.updates_applied,
        "checksum": round(result.shard_skew, 4),
    }


def bench_parallel_query_throughput(macro_docs: int, **_: object) -> dict:
    """The concurrent execution subsystem under streaming-update service load.

    The paper's motivating regime — top-k queries answered *while* heavy
    score-update traffic streams in — on the same corpus as
    :func:`bench_sharded_query_throughput`: eight closed-loop clients, one
    update-heavy mix (160 updates per query at ``query_fraction=0.25``),
    against ``SVRTextIndex(shards=4, threads=4)``.  The router fans per-term
    query scans out across the single-writer shard executors and drains
    update windows that gather behind the writer lock as one combined batch
    (cross-client group application), which is where the wall-clock win over
    serial execution comes from.

    Honesty guard: each repetition *also* replays the identical per-client
    schedules serially (round-robin ``MultiClientDriver`` on a ``threads=1``
    index) and reports that run in
    ``extra["serial_same_mix_ops_per_sec"]`` — so the entry carries its own
    same-workload baseline alongside the latency profile, rather than only
    the mix-sensitive comparison against the ``sharded_query_throughput``
    entry.  ``operations`` counts queries + updates like every throughput
    entry here.
    """
    from repro.workloads.multiclient import MultiClientConfig, MultiClientDriver
    from repro.workloads.service import ServiceLoadConfig, ServiceLoadDriver
    from repro.workloads.updates import UpdateWorkload, UpdateWorkloadConfig

    clients, query_fraction, window = 8, 0.25, 64
    index, corpus = _build_macro_index(shards=4, macro_docs=macro_docs)
    queries = _macro_queries(corpus)
    updates = UpdateWorkload(
        UpdateWorkloadConfig(num_updates=160 * len(queries), seed=11),
        corpus.scores(),
    ).generate_list()

    serial_driver = MultiClientDriver(
        MultiClientConfig(num_clients=clients, query_fraction=query_fraction,
                          batch_window=window, seed=31),
        queries, updates,
    )
    start = time.perf_counter()
    serial_result = serial_driver.run(index)
    serial_elapsed = time.perf_counter() - start
    serial_ops = serial_result.queries_run + serial_result.updates_applied
    index.close()

    index, _corpus = _build_macro_index(shards=4, macro_docs=macro_docs, threads=4)
    driver = ServiceLoadDriver(
        ServiceLoadConfig(num_clients=clients, query_fraction=query_fraction,
                          batch_window=window, seed=31),
        queries, updates,
    )
    start = time.perf_counter()
    result = driver.run(index)
    elapsed = time.perf_counter() - start
    index.close()
    return {
        "seconds": elapsed,
        "operations": result.queries_run + result.updates_applied,
        "checksum": round(result.shard_load.skew, 4) if result.shard_load else 0.0,
        "extra": {
            "p50_query_ms": round(result.query_latency_ms(0.50), 3),
            "p95_query_ms": round(result.query_latency_ms(0.95), 3),
            "p99_query_ms": round(result.query_latency_ms(0.99), 3),
            "combined_windows": result.combined_windows,
            "serial_same_mix_ops_per_sec": round(serial_ops / serial_elapsed, 1),
        },
    }


BENCHES = {
    "btree_insert": bench_btree_insert,
    "btree_score_update": bench_btree_score_update,
    "btree_batch_update": bench_btree_batch_update,
    "score_list_rekey": bench_score_list_rekey,
    "decode_id_list": bench_decode_id_list,
    "decode_chunk_list": bench_decode_chunk_list,
    "decode_scored_list": bench_decode_scored_list,
    "build_long_lists": bench_build_long_lists,
    "prefix_scan": bench_prefix_scan,
    "query_macro": bench_query_macro,
    "file_backed_query_macro": bench_file_backed_query_macro,
    "fault_overhead": bench_fault_overhead,
    "obs_overhead": bench_obs_overhead,
    "explain_overhead": bench_explain_overhead,
    "hot_query_under_writes": bench_hot_query_under_writes,
    "sharded_query_throughput": bench_sharded_query_throughput,
    "parallel_query_throughput": bench_parallel_query_throughput,
}


# ---------------------------------------------------------------------------
# Trajectory file handling
# ---------------------------------------------------------------------------


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _environment() -> str:
    """Execution-environment tag for apples-to-apples comparisons.

    Absolute wall-clock differs wildly between a dev machine and a shared CI
    runner, so the regression gate only ever compares entries recorded in the
    same environment.  Beyond the coarse ci/local split the tag carries the
    dimensions that actually move these numbers between hosts: the core count
    (the parallel throughput entries are meaningless without it), the Python
    minor version, and ``PYTHONHASHSEED`` (hash randomisation perturbs dict
    iteration order in the build paths).
    """
    import os

    base = "ci" if os.environ.get("CI") else "local"
    return (
        f"{base}/cores={os.cpu_count()}"
        f"/py{sys.version_info.major}.{sys.version_info.minor}"
        f"/hashseed={os.environ.get('PYTHONHASHSEED', 'random')}"
    )


def load_trajectory() -> list[dict]:
    if not RESULTS_PATH.exists():
        return []
    return json.loads(RESULTS_PATH.read_text())


def run_all(scale: str, reps: int = 3) -> dict:
    """Run every bench ``reps`` times and keep the best (fastest) repetition.

    The smoke benchmarks measure well under a second each; best-of-N filters
    out transient interference (a background process, a noisy CI neighbour)
    that would otherwise make the regression gate flake.
    """
    params = SCALES[scale]
    results = {}
    for name, bench in BENCHES.items():
        measured = min((bench(**params) for _ in range(max(1, reps))),
                       key=lambda m: m["seconds"])
        ops_per_sec = measured["operations"] / measured["seconds"] if measured["seconds"] else 0.0
        results[name] = {
            "seconds": round(measured["seconds"], 4),
            "operations": measured["operations"],
            "ops_per_sec": round(ops_per_sec, 1),
        }
        if "extra" in measured:
            results[name]["extra"] = measured["extra"]
        print(f"{name:24s} {measured['seconds']:8.3f}s  "
              f"{measured['operations']:>10d} ops  {ops_per_sec:>12.0f} ops/s")
        for key, value in measured.get("extra", {}).items():
            print(f"    {key:32s} {value}")
    return results


def latest_entry_for_scale(trajectory: list[dict], scale: str,
                           environment: str) -> dict | None:
    """Most recent entry with the same scale *and* environment.

    Entries written before the environment tag existed default to "local";
    entries written before the tag grew its ``/cores=…`` qualifiers carry the
    bare ``ci``/``local`` token, which still matches a current tag with the
    same base — a strictly *looser* comparison than the full tag, used only
    as a fallback when no fully matching entry exists.
    """
    base = environment.split("/", 1)[0]
    fallback = None
    for entry in reversed(trajectory):
        if entry.get("scale") != scale:
            continue
        recorded = entry.get("environment", "local")
        if recorded == environment:
            return entry
        if fallback is None and recorded == base:
            fallback = entry
    return fallback


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--append", action="store_true",
                        help="append this run to BENCH_storage_micro.json")
    parser.add_argument("--check", action="store_true",
                        help="fail when slower than the last committed entry")
    parser.add_argument("--label", default="")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional slowdown for --check")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per bench; the fastest is kept")
    parser.add_argument("--floor", action="append", default=[],
                        metavar="NAME=OPS_PER_SEC",
                        help="absolute throughput floor for one benchmark; "
                             "fails the run when the measured ops/s lands "
                             "below it.  Unlike --check (relative to the last "
                             "committed same-environment entry), a floor "
                             "cannot drift: a sequence of sub-tolerance "
                             "regressions that each pass the relative gate "
                             "still trips the floor once the cumulative loss "
                             "is real.  Repeatable.")
    args = parser.parse_args()

    floors: dict[str, float] = {}
    for spec in args.floor:
        name, _, value = spec.partition("=")
        if name not in BENCHES:
            parser.error(f"--floor: unknown benchmark {name!r}")
        try:
            floors[name] = float(value)
        except ValueError:
            parser.error(f"--floor: bad threshold in {spec!r}")

    trajectory = load_trajectory()
    environment = _environment()
    baseline = latest_entry_for_scale(trajectory, args.scale, environment)
    results = run_all(args.scale, reps=args.reps)

    status = 0
    if baseline is not None:
        print(f"\nvs committed entry {baseline.get('label', '?')!r} "
              f"({baseline.get('git', '?')}, {baseline.get('timestamp', '?')}, "
              f"{environment}):")
        for name, current in results.items():
            previous = baseline.get("results", {}).get(name)
            if not previous or not previous.get("ops_per_sec"):
                continue
            speedup = current["ops_per_sec"] / previous["ops_per_sec"]
            flag = ""
            if args.check and speedup < 1.0 - args.tolerance:
                flag = "  << REGRESSION"
                status = 1
            print(f"  {name:24s} {speedup:6.2f}x{flag}")
    elif args.check:
        print(f"no committed {environment} baseline for scale {args.scale} "
              f"- nothing to check (commit one from this environment to arm the gate)")

    if floors:
        print("\nabsolute floors:")
        for name, floor in sorted(floors.items()):
            measured = results[name]["ops_per_sec"]
            below = measured < floor
            if below:
                status = 1
            print(f"  {name:24s} {measured:>12.1f} ops/s  "
                  f"(floor {floor:.0f}){'  << BELOW FLOOR' if below else ''}")

    if args.append:
        entry = {
            "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "git": _git_revision(),
            "label": args.label or "unlabelled",
            "scale": args.scale,
            "environment": environment,
            "python": sys.version.split()[0],
            "results": results,
        }
        trajectory.append(entry)
        RESULTS_PATH.write_text(json.dumps(trajectory, indent=1) + "\n")
        print("\nappended to", RESULTS_PATH)
    return status


if __name__ == "__main__":
    sys.exit(main())
