"""One experiment per table and figure of the paper's evaluation.

Every function returns a list of row dictionaries (ready for
:func:`repro.bench.reporting.format_rows`) and accepts a
:class:`~repro.bench.runner.BenchScale` so the same experiment can run at smoke
scale in the test suite and at benchmark scale from ``benchmarks/``.

The paper's absolute milliseconds were measured on a 2.8 GHz Pentium 4 against
an 805 MB BerkeleyDB database; the reproduction reports wall-clock time at a
reduced scale *and* the simulated I/O the arguments are actually about (page
reads under the cold-cache methodology).  The ``benchmarks/bench_*.py``
scripts save each table's rows under ``benchmarks/results/``, where the shapes
can be compared with the paper's.

The paper tunes the Chunk and Score-Threshold knobs to 6.12 / 11.24 for its
100,000-document corpus; because the stopping rules act at chunk granularity,
the equivalent knob value depends on the corpus size, so the default method
line-ups below take the ratios from the active :class:`BenchScale` (Table 2
remains the explicit sweep over ratios).
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.bench.metrics import MeteredEnvironment, OperationMetrics
from repro.bench.runner import BenchScale, ExperimentRunner, MethodSetup
from repro.core.indexes.chunking import equal_count_chunks, exponential_count_chunks
from repro.workloads.synthetic import SyntheticDocument, term_name
from repro.workloads.zipf import ZipfSampler, zipf_scores

Row = dict[str, Any]


def svr_methods(scale: BenchScale) -> tuple[MethodSetup, ...]:
    """The four SVR-only methods compared throughout §5.3."""
    return (
        MethodSetup("id"),
        MethodSetup("score"),
        MethodSetup("score_threshold", {"threshold_ratio": scale.default_threshold_ratio}),
        MethodSetup("chunk", {"chunk_ratio": scale.default_chunk_ratio}),
    )


def termscore_methods(scale: BenchScale) -> tuple[MethodSetup, ...]:
    """The combined-scoring methods of §5.3.5.

    The fancy-list size is kept proportional to the reduced corpus (the paper
    does not publish the value used for its 100,000-document collection).
    """
    return (
        MethodSetup("id_termscore"),
        MethodSetup(
            "chunk_termscore",
            {"chunk_ratio": scale.default_chunk_ratio, "fancy_size": 25},
        ),
    )


def all_methods(scale: BenchScale) -> tuple[MethodSetup, ...]:
    """All six methods (Table 1 reports the long-list size of each)."""
    return svr_methods(scale) + termscore_methods(scale)


# ---------------------------------------------------------------------------
# Table 1 — size of long inverted lists
# ---------------------------------------------------------------------------


def table1_index_sizes(scale: BenchScale | None = None,
                       methods: Sequence[MethodSetup] | None = None) -> list[Row]:
    """Table 1: serialized size of the long inverted lists per method."""
    runner = ExperimentRunner(scale)
    if methods is None:
        methods = all_methods(runner.scale)
    rows: list[Row] = []
    for setup in methods:
        index, build_seconds = runner.build_index(setup)
        rows.append(
            {
                "method": setup.display_name,
                "long_list_bytes": index.long_list_size_bytes(),
                "long_list_mb": round(index.long_list_size_bytes() / (1024 * 1024), 3),
                "build_seconds": round(build_seconds, 2),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 2 — effect of the chunk ratio
# ---------------------------------------------------------------------------


def table2_chunk_ratio(scale: BenchScale | None = None,
                       ratios: Sequence[float] = (32.0, 16.0, 8.0, 4.0, 2.2, 1.4),
                       mean_steps: Sequence[float] = (100.0, 1000.0, 10000.0)) -> list[Row]:
    """Table 2: update and query time of the Chunk method as the chunk ratio varies.

    One row per (chunk ratio, mean update step); the paper's optimum moves to
    larger ratios as the update step grows.
    """
    runner = ExperimentRunner(scale)
    queries = runner.make_queries()
    rows: list[Row] = []
    for mean_step in mean_steps:
        updates = runner.make_updates(mean_step=mean_step)
        for ratio in ratios:
            setup = MethodSetup("chunk", {"chunk_ratio": ratio}, label=f"chunk@{ratio}")
            run = runner.measure_method(setup, updates, queries)
            rows.append(
                {
                    "mean_step": mean_step,
                    "chunk_ratio": ratio,
                    "avg_update_ms": round(run.update_metrics.avg_wall_ms, 4),
                    "avg_query_ms": round(run.query_metrics.avg_wall_ms, 4),
                    "update_pages": round(run.update_metrics.avg_pages_read, 2),
                    "query_pages": round(run.query_metrics.avg_pages_read, 2),
                    "query_io_ms": round(run.query_metrics.avg_estimated_io_ms, 3),
                    "short_list_bytes": run.short_list_bytes,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 7 — varying the number of score updates
# ---------------------------------------------------------------------------


def fig7_varying_updates(scale: BenchScale | None = None,
                         methods: Sequence[MethodSetup] | None = None,
                         update_counts: Sequence[int] | None = None,
                         score_method_update_cap: int = 200) -> list[Row]:
    """Figure 7: average update and query time as the number of updates grows.

    Each method's index is built once; the update stream is applied
    incrementally and queries are re-measured after each level.  The Score
    method's per-update cost is so high that only ``score_method_update_cap``
    updates are actually applied per level (its per-update average is already
    stable after a handful of updates); the row records how many were measured.
    """
    runner = ExperimentRunner(scale)
    effective_scale = runner.scale
    if methods is None:
        methods = svr_methods(effective_scale)
    if update_counts is None:
        total = effective_scale.num_updates
        update_counts = (0, max(1, total // 3), total)
    max_updates = max(update_counts)
    all_updates = runner.make_updates(num_updates=max_updates)
    queries = runner.make_queries()
    rows: list[Row] = []
    for setup in methods:
        index, _build = runner.build_index(setup)
        cumulative_updates = OperationMetrics(label="updates")
        applied = 0
        for target in sorted(update_counts):
            batch = all_updates[applied:target]
            applied = target
            if setup.method == "score" and len(batch) > score_method_update_cap:
                batch = batch[:score_method_update_cap]
            metrics = runner.apply_updates(index, batch)
            cumulative_updates.merge(metrics)
            query_metrics = runner.run_queries(index, queries)
            rows.append(
                {
                    "method": setup.display_name,
                    "updates": target,
                    "updates_measured": cumulative_updates.operations,
                    "avg_update_ms": round(cumulative_updates.avg_wall_ms, 4),
                    "avg_query_ms": round(query_metrics.avg_wall_ms, 4),
                    "query_pages": round(query_metrics.avg_pages_read, 2),
                    "query_io_ms": round(query_metrics.avg_estimated_io_ms, 3),
                }
            )
    return rows


def fig7_batched_storm(scale: BenchScale | None = None,
                       methods: Sequence[MethodSetup] | None = None,
                       batch_size: int = 1000,
                       score_method_update_cap: int = 1000) -> list[Row]:
    """Figure 7 companion: the same update storm applied per-update vs batched.

    Each method's index is built twice over the shared corpus; one copy
    receives the update stream through :meth:`~repro.bench.runner.ExperimentRunner.apply_updates`
    (one ``update_score`` call per update — the Figure 7 baseline), the other
    through windows of ``batch_size`` updates via ``apply_score_updates``.
    The Score method's stream is capped (like Figure 7 caps it) identically
    for both modes, so the comparison is over the same updates.  Each row also
    records whether the two indexes answer the query workload identically
    after the storm — the batched write path must leave the read path
    bit-for-bit equivalent.
    """
    runner = ExperimentRunner(scale)
    effective_scale = runner.scale
    if methods is None:
        methods = svr_methods(effective_scale)
    all_updates = runner.make_updates()
    queries = runner.make_queries()
    rows: list[Row] = []
    for setup in methods:
        stream = all_updates
        if setup.method == "score" and len(stream) > score_method_update_cap:
            stream = stream[:score_method_update_cap]
        single_index, _build = runner.build_index(setup)
        single_metrics = runner.apply_updates(single_index, stream)
        batched_index, _build = runner.build_index(setup)
        batched_metrics = runner.apply_updates_batched(
            batched_index, stream, batch_size=batch_size
        )
        results_match = all(
            _query_fingerprint(single_index, query) == _query_fingerprint(batched_index, query)
            for query in queries
        )
        single_ms = single_metrics.avg_wall_ms
        batched_ms = batched_metrics.avg_wall_ms
        rows.append(
            {
                "method": setup.display_name,
                "updates": len(stream),
                "batch_size": batch_size,
                "avg_update_ms_single": round(single_ms, 4),
                "avg_update_ms_batched": round(batched_ms, 4),
                "speedup": round(single_ms / batched_ms, 2) if batched_ms else 0.0,
                "update_pages_single": round(single_metrics.avg_pages_read, 2),
                "update_pages_batched": round(batched_metrics.avg_pages_read, 2),
                "results_match": results_match,
            }
        )
    return rows


def _query_fingerprint(index, query) -> tuple:
    """The (doc_id, score) results of one query — the read-path fingerprint."""
    response = index.search(query.keywords, k=query.k, conjunctive=query.conjunctive)
    return tuple((result.doc_id, result.score) for result in response.results)


# ---------------------------------------------------------------------------
# Figure 8 — varying the number of desired results k
# ---------------------------------------------------------------------------


def fig8_varying_k(scale: BenchScale | None = None,
                   methods: Sequence[MethodSetup] | None = None,
                   ks: Sequence[int] = (1, 5, 10, 50, 200)) -> list[Row]:
    """Figure 8: query time of ID, Score-Threshold and Chunk as k varies."""
    runner = ExperimentRunner(scale)
    effective_scale = runner.scale
    if methods is None:
        methods = (
            MethodSetup("id"),
            MethodSetup(
                "score_threshold", {"threshold_ratio": effective_scale.default_threshold_ratio}
            ),
            MethodSetup("chunk", {"chunk_ratio": effective_scale.default_chunk_ratio}),
        )
    updates = runner.make_updates()
    rows: list[Row] = []
    for setup in methods:
        index, _build = runner.build_index(setup)
        runner.apply_updates(index, updates)
        for k in ks:
            queries = runner.make_queries(k=k)
            metrics = runner.run_queries(index, queries)
            rows.append(
                {
                    "method": setup.display_name,
                    "k": k,
                    "avg_query_ms": round(metrics.avg_wall_ms, 4),
                    "query_pages": round(metrics.avg_pages_read, 2),
                    "query_io_ms": round(metrics.avg_estimated_io_ms, 3),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 9 — combining term scores
# ---------------------------------------------------------------------------


def fig9_termscore(scale: BenchScale | None = None,
                   methods: Sequence[MethodSetup] | None = None) -> list[Row]:
    """Figure 9: Chunk-TermScore vs ID-TermScore under combined SVR + term scoring."""
    runner = ExperimentRunner(scale)
    if methods is None:
        methods = termscore_methods(runner.scale)
    updates = runner.make_updates()
    queries = runner.make_queries()
    rows: list[Row] = []
    for setup in methods:
        run = runner.measure_method(setup, updates, queries)
        rows.append(
            {
                "method": setup.display_name,
                "avg_update_ms": round(run.update_metrics.avg_wall_ms, 4),
                "avg_query_ms": round(run.query_metrics.avg_wall_ms, 4),
                "query_pages": round(run.query_metrics.avg_pages_read, 2),
                "query_io_ms": round(run.query_metrics.avg_estimated_io_ms, 3),
                "long_list_mb": round(run.long_list_bytes / (1024 * 1024), 3),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 10 — disjunctive queries
# ---------------------------------------------------------------------------


def fig10_disjunctive(scale: BenchScale | None = None,
                      methods: Sequence[MethodSetup] | None = None) -> list[Row]:
    """Figure 10: conjunctive vs disjunctive query time per method."""
    runner = ExperimentRunner(scale)
    effective_scale = runner.scale
    if methods is None:
        methods = (
            MethodSetup("id"),
            MethodSetup("id_termscore"),
            MethodSetup(
                "score_threshold", {"threshold_ratio": effective_scale.default_threshold_ratio}
            ),
            MethodSetup("chunk", {"chunk_ratio": effective_scale.default_chunk_ratio}),
            MethodSetup("chunk_termscore", {"chunk_ratio": effective_scale.default_chunk_ratio}),
        )
    updates = runner.make_updates()
    conjunctive = runner.make_queries(conjunctive=True)
    disjunctive = runner.make_queries(conjunctive=False)
    rows: list[Row] = []
    for setup in methods:
        index, _build = runner.build_index(setup)
        runner.apply_updates(index, updates)
        conj_metrics = runner.run_queries(index, conjunctive)
        disj_metrics = runner.run_queries(index, disjunctive)
        rows.append(
            {
                "method": setup.display_name,
                "conj_query_ms": round(conj_metrics.avg_wall_ms, 4),
                "disj_query_ms": round(disj_metrics.avg_wall_ms, 4),
                "conj_pages": round(conj_metrics.avg_pages_read, 2),
                "disj_pages": round(disj_metrics.avg_pages_read, 2),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 3 (Appendix A.3) — document insertions
# ---------------------------------------------------------------------------


def table3_insertions(scale: BenchScale | None = None,
                      insertion_counts: Sequence[int] | None = None,
                      score_update_sample: int = 300,
                      batched_score_updates: bool = False,
                      batch_size: int = 256) -> list[Row]:
    """Table 3: Chunk-method query / score-update / insertion cost vs #insertions.

    Documents are inserted incrementally after the bulk build; after each level
    the query workload and a sample of score updates are re-measured (queries
    right after the insertions, as in the paper).  The default insertion counts
    are 1/2/5/10% of the corpus, matching the paper's 1,000-10,000 insertions
    over its 100,000-document collection.

    With ``batched_score_updates=True`` the score-update sample is applied in
    windows of ``batch_size`` through the batched pipeline instead of one
    ``update_score`` call at a time — the batched mode measured against the
    per-update baseline by ``benchmarks/bench_table3_insertions.py``.
    """
    runner = ExperimentRunner(scale)
    effective_scale = runner.scale
    if insertion_counts is None:
        base = effective_scale.corpus.num_docs
        insertion_counts = tuple(
            max(5, int(round(base * fraction))) for fraction in (0.01, 0.02, 0.05, 0.10)
        )
    setup = MethodSetup("chunk", {"chunk_ratio": effective_scale.default_chunk_ratio})
    index, _build = runner.build_index(setup)
    queries = runner.make_queries()
    updates = runner.make_updates(num_updates=score_update_sample)
    meter = MeteredEnvironment(index.env)

    corpus_config = effective_scale.corpus
    new_documents = _generate_insertions(
        start_id=corpus_config.num_docs + 1,
        count=max(insertion_counts),
        corpus_config=corpus_config,
    )
    rows: list[Row] = []
    inserted = 0
    insertion_metrics = OperationMetrics(label="insertions")
    for target in sorted(insertion_counts):
        for document in new_documents[inserted:target]:
            with meter.measure(insertion_metrics):
                index.insert_document_terms(document.doc_id, document.terms, document.score)
        inserted = target
        if batched_score_updates:
            update_metrics = runner.apply_updates_batched(
                index, updates, batch_size=batch_size
            )
        else:
            update_metrics = runner.apply_updates(index, updates)
        query_metrics = runner.run_queries(index, queries)
        rows.append(
            {
                "inserted_docs": target,
                "update_mode": "batched" if batched_score_updates else "single",
                "avg_query_ms": round(query_metrics.avg_wall_ms, 4),
                "avg_score_update_ms": round(update_metrics.avg_wall_ms, 4),
                "avg_insertion_ms": round(insertion_metrics.avg_wall_ms, 4),
                "short_list_bytes": index.index.short_list_size_bytes(),
            }
        )
    return rows


def _generate_insertions(start_id: int, count: int, corpus_config) -> list[SyntheticDocument]:
    """Fresh documents (term sequences + scores) for the insertion experiment."""
    sampler = ZipfSampler(corpus_config.num_distinct_terms, corpus_config.term_zipf,
                          rng=random.Random(corpus_config.seed + 1))
    scores = zipf_scores(count, corpus_config.max_score, corpus_config.score_zipf,
                         rng=random.Random(corpus_config.seed + 2))
    documents = []
    for index in range(count):
        ranks = sampler.sample_ranks(corpus_config.terms_per_doc)
        documents.append(
            SyntheticDocument(
                doc_id=start_id + index,
                terms=tuple(term_name(rank) for rank in ranks),
                structured_value="",
                score=scores[index],
            )
        )
    return documents


# ---------------------------------------------------------------------------
# Ablations called out in DESIGN.md
# ---------------------------------------------------------------------------


def ablation_threshold_ratio(scale: BenchScale | None = None,
                             ratios: Sequence[float] = (1.5, 2.0, 4.0, 8.0, 32.0)) -> list[Row]:
    """§5.3.1 (text): the Score-Threshold update/query trade-off vs threshold ratio."""
    runner = ExperimentRunner(scale)
    updates = runner.make_updates()
    queries = runner.make_queries()
    rows: list[Row] = []
    for ratio in ratios:
        setup = MethodSetup(
            "score_threshold", {"threshold_ratio": ratio}, label=f"score_threshold@{ratio}"
        )
        run = runner.measure_method(setup, updates, queries)
        rows.append(
            {
                "threshold_ratio": ratio,
                "avg_update_ms": round(run.update_metrics.avg_wall_ms, 4),
                "avg_query_ms": round(run.query_metrics.avg_wall_ms, 4),
                "query_pages": round(run.query_metrics.avg_pages_read, 2),
                "short_list_bytes": run.short_list_bytes,
            }
        )
    return rows


def ablation_chunk_boundaries(scale: BenchScale | None = None,
                              num_chunks: int = 12) -> list[Row]:
    """§4.3.2 design choice: ratio-based vs equal-count vs exponential chunk boundaries."""
    runner = ExperimentRunner(scale)
    effective_scale = runner.scale
    updates = runner.make_updates()
    queries = runner.make_queries()
    strategies = {
        "ratio": MethodSetup(
            "chunk", {"chunk_ratio": effective_scale.default_chunk_ratio}, label="ratio"
        ),
        "equal_count": MethodSetup(
            "chunk",
            {"chunk_strategy": lambda scores: equal_count_chunks(scores, num_chunks)},
            label="equal_count",
        ),
        "exponential": MethodSetup(
            "chunk",
            {"chunk_strategy": lambda scores: exponential_count_chunks(scores, num_chunks)},
            label="exponential",
        ),
    }
    rows: list[Row] = []
    for name, setup in strategies.items():
        run = runner.measure_method(setup, updates, queries)
        rows.append(
            {
                "strategy": name,
                "avg_update_ms": round(run.update_metrics.avg_wall_ms, 4),
                "avg_query_ms": round(run.query_metrics.avg_wall_ms, 4),
                "query_pages": round(run.query_metrics.avg_pages_read, 2),
            }
        )
    return rows


def ablation_focus_set(scale: BenchScale | None = None,
                       focus_fractions: Sequence[float] = (0.0, 0.01, 0.05),
                       directions: Sequence[str] = ("increase", "mixed")) -> list[Row]:
    """§5.1 focus-set parameters: flash-crowd updates against the Chunk method."""
    runner = ExperimentRunner(scale)
    effective_scale = runner.scale
    queries = runner.make_queries()
    rows: list[Row] = []
    for fraction in focus_fractions:
        for direction in directions:
            updates = runner.make_updates(
                focus_set_fraction=fraction,
                focus_update_fraction=0.5 if fraction > 0 else 0.0,
                focus_direction=direction,
            )
            setup = MethodSetup(
                "chunk", {"chunk_ratio": effective_scale.default_chunk_ratio}
            )
            run = runner.measure_method(setup, updates, queries)
            rows.append(
                {
                    "focus_fraction": fraction,
                    "direction": direction,
                    "avg_update_ms": round(run.update_metrics.avg_wall_ms, 4),
                    "avg_query_ms": round(run.query_metrics.avg_wall_ms, 4),
                    "short_list_bytes": run.short_list_bytes,
                }
            )
    return rows
