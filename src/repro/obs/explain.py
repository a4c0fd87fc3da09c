"""Query EXPLAIN / EXPLAIN ANALYZE: the planner's view, optionally with actuals.

:func:`explain_query` renders what the engine *would do* for a top-k query —
per-term owning shard, storage layout (blocked vs legacy vs clustered),
directory-served posting-count estimate, hot-term cache status — without
executing it.  Every fact is served from in-memory state or the buffer
pool's accounting-free peek path
(see :meth:`InvertedIndex.describe_term_plan`), so a plain EXPLAIN performs
**zero accounted storage accesses**: fig7/table1 fingerprints cannot tell
whether a plan was ever described.

With ``analyze=True`` the query really runs — through the exact
:meth:`IndexRouter.query` path a caller would use, so the returned top-k is
bit-identical to a plain query — and the plan is grafted with actuals:
postings scanned vs estimated, per-shard pages/pool-hit splits, and the
plan/merge phase breakdown read off the span tree.

The module doubles as a CLI::

    python -m repro.obs.explain --demo term1 term2 --analyze
    python -m repro.obs.explain --path /var/data/index alpha beta --format json
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.obs.snapshot import to_json
from repro.obs.trace import set_tracing, span


def _term_plans(router, terms: list[str], conjunctive: bool) -> list[dict]:
    quarantined = set(router.quarantined_shards())
    plans = []
    for term in terms:
        plan = router.index.describe_term_plan(term)
        shard = router.shard_of_term(term)
        plan["shard"] = shard
        plan["quarantined"] = shard in quarantined
        plans.append(plan)
    return plans


def _engine_section(router) -> dict:
    index = router.index
    return {
        "method": router.method_name,
        "shards": router.shard_count,
        "threads": router.threads,
        "blocked_postings": index.blocked_postings,
        "list_cache_enabled": index.list_cache is not None,
        "degraded": router.degraded,
        "quarantined_shards": list(router.quarantined_shards()),
    }


def _walk_spans(root) -> "list":
    nodes, out = [root], []
    while nodes:
        node = nodes.pop()
        out.append(node)
        nodes.extend(node.children)
    return out


def _run_analysis(router, keywords: list[str], k: int,
                  conjunctive: bool) -> dict:
    """Execute the query for real and distil the actuals from its traces.

    The execution path is exactly :meth:`IndexRouter.query` — same
    normalization already applied by the caller, same locks, same scans —
    so results and stats are bit-identical to an un-analyzed query.
    Tracing is invisible to storage accounting by contract.
    """
    previous = set_tracing(True)
    try:
        epoch = router.shard_snapshots()
        with span("explain.analyze") as root:
            started = time.perf_counter()
            response = router.query(keywords, k=k, conjunctive=conjunctive)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        deltas = router.shard_deltas(epoch)
    finally:
        set_tracing(previous)

    stats = response.stats
    phase_ms = {"plan_ms": None, "merge_ms": None}
    for node in _walk_spans(root):
        phase = {"query.plan": "plan_ms", "query.merge": "merge_ms"}.get(node.name)
        if phase is not None and node.duration_ms is not None:
            phase_ms[phase] = (phase_ms[phase] or 0.0) + node.duration_ms
    return {
        "latency_ms": round(elapsed_ms, 4),
        "results": [
            {"doc_id": result.doc_id, "score": result.score}
            for result in response.results
        ],
        "totals": {
            "postings_scanned": stats.postings_scanned,
            "chunks_scanned": stats.chunks_scanned,
            "pages_read": stats.pages_read,
            "pool_hits": stats.pool_hits,
            "estimated_io_ms": round(stats.estimated_io_ms, 4),
            "stopped_early": stats.stopped_early,
            "degraded": stats.degraded,
            "terms_skipped": stats.terms_skipped,
        },
        "phases": {
            key: (None if value is None else round(value, 4))
            for key, value in phase_ms.items()
        },
        "shards": [
            {"shard": shard, "pages_read": delta.page_reads,
             "pool_hits": delta.pool_hits, "cost_ms": round(delta.cost_ms(), 4)}
            for shard, delta in enumerate(deltas)
        ],
        "trace": root.to_dict() if root is not None else None,
    }


def explain_query(engine, keywords: list[str], k: int = 10,
                  conjunctive: bool = True, analyze: bool = False) -> dict:
    """Structured plan (and, with ``analyze``, actuals) for one query.

    ``engine`` is an :class:`~repro.core.text_index.SVRTextIndex`;
    ``keywords`` are already analyzed/normalized terms (use
    :meth:`SVRTextIndex.explain` for raw query strings).  Raises the same
    :class:`~repro.errors.QueryError` a real query would on invalid input.
    """
    router = engine.router
    terms = router.index.prepare_query(keywords, k)
    plan = {
        "query": {
            "keywords": list(keywords),
            "terms": list(terms),
            "k": k,
            "conjunctive": conjunctive,
            "analyze": analyze,
        },
        "engine": _engine_section(router),
        "terms": _term_plans(router, terms, conjunctive),
        "execution": None,
    }
    if analyze:
        plan["execution"] = _run_analysis(router, list(keywords), k,
                                          conjunctive)
    return plan


# -- rendering -------------------------------------------------------------------


def _cache_note(cache: "dict | None") -> str:
    if cache is None:
        return "off"
    if cache["cached"]:
        return "hit"
    return "fillable" if cache["cacheable"] else "oversized"


def render_text(plan: dict) -> str:
    """Human-readable plan tree (the CLI's default output)."""
    query = plan["query"]
    engine = plan["engine"]
    mode = "ANALYZE" if query["analyze"] else "EXPLAIN"
    semantics = "AND" if query["conjunctive"] else "OR"
    lines = [
        f"{mode} {engine['method']} k={query['k']} {semantics} "
        f"terms={len(query['terms'])} shards={engine['shards']} "
        f"threads={engine['threads']}"
        + (" [degraded]" if engine["degraded"] else "")
    ]
    lines.append(
        "  engine: blocked_postings={blocked_postings} "
        "cache={list_cache_enabled}".format(**engine)
    )
    for term_plan in plan["terms"]:
        parts = [
            f"  term {term_plan['term']!r} -> shard {term_plan['shard']}",
            f"layout={term_plan['layout']}",
        ]
        if term_plan["blocks"] is not None:
            parts.append(f"blocks={term_plan['blocks']}")
        if term_plan["estimated_postings"] is not None:
            parts.append(f"est_postings={term_plan['estimated_postings']}")
        if term_plan["segment_bytes"] is not None:
            parts.append(f"bytes={term_plan['segment_bytes']}")
        parts.append(f"cache={_cache_note(term_plan['cache'])}")
        if term_plan["quarantined"]:
            parts.append("QUARANTINED")
        lines.append(" ".join(parts))
    execution = plan["execution"]
    if execution is not None:
        totals = execution["totals"]
        estimated = sum(
            term_plan["estimated_postings"] or 0 for term_plan in plan["terms"]
        )
        lines.append(
            f"  actual: latency={execution['latency_ms']:.3f}ms "
            f"postings={totals['postings_scanned']} (est {estimated}) "
            f"pages={totals['pages_read']} pool_hits={totals['pool_hits']}"
            + (" stopped_early" if totals["stopped_early"] else "")
        )
        phases = execution["phases"]
        phase_note = " ".join(
            f"{key[:-3]}={value:.3f}ms"
            for key, value in phases.items() if value is not None
        )
        if phase_note:
            lines.append(f"  phases: {phase_note}")
        for row in execution["shards"]:
            lines.append(
                f"  shard {row['shard']}: pages={row['pages_read']} "
                f"pool_hits={row['pool_hits']} io={row['cost_ms']}ms"
            )
        top = " ".join(
            f"{result['doc_id']}({result['score']:.4g})"
            for result in execution["results"][:10]
        )
        lines.append(f"  results: {top or '(none)'}")
    return "\n".join(lines) + "\n"


# -- CLI -------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.explain",
        description="Explain (and optionally execute) a top-k query.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--demo", action="store_true",
                        help="build a small demo engine and explain against it")
    source.add_argument("--path", help="durable engine directory to inspect")
    parser.add_argument("keywords", nargs="*",
                        help="query keywords (default: two demo terms)")
    parser.add_argument("--k", type=int, default=10, help="top-k (default 10)")
    parser.add_argument("--or", dest="disjunctive", action="store_true",
                        help="OR semantics instead of AND")
    parser.add_argument("--analyze", action="store_true",
                        help="execute the query and graft actuals onto the plan")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)

    keywords = args.keywords
    if args.demo:
        from repro.obs.dump import _demo_engine

        engine = _demo_engine()
        if not keywords:
            keywords = ["term1", "term2"]
    else:
        if not keywords:
            parser.error("--path needs at least one keyword")
        from repro.core.text_index import SVRTextIndex

        engine = SVRTextIndex.open(args.path)
    try:
        plan = engine.explain(keywords, k=args.k,
                              conjunctive=not args.disjunctive,
                              analyze=args.analyze)
        if args.format == "json":
            sys.stdout.write(to_json(plan) + "\n")
        else:
            sys.stdout.write(render_text(plan))
    finally:
        if args.demo:
            engine.close()
        else:
            # Recovery opened the directory; tear down without committing.
            engine.crash()
    return 0


if __name__ == "__main__":
    sys.exit(main())
