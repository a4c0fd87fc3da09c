"""Introspection CLI: dump an engine's observability snapshot.

Usage::

    python -m repro.obs.dump --demo [--format json|prom|text]
    python -m repro.obs.dump --path /var/data/index [--format json]

``--demo`` builds a small in-memory engine, runs a few hundred traced
queries and updates, and dumps the resulting snapshot — the quickest way to
see what the observability layer reports.  ``--path`` recovers a durable
engine directory read-only-in-spirit: the snapshot is taken straight after
recovery and the engine is torn down with ``crash()`` (no commit), so the
directory's durable state is left exactly as found.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.obs.snapshot import observability_snapshot, to_json, to_prometheus_text
from repro.obs.trace import SLOW_QUERIES, set_tracing


def _demo_engine():
    from repro.core.text_index import SVRTextIndex

    rng = random.Random(1234)
    vocabulary = [f"term{i}" for i in range(40)]
    engine = SVRTextIndex(method="chunk", cache_pages=256, shards=4, threads=1)
    for doc_id in range(1, 201):
        terms = rng.sample(vocabulary, rng.randint(3, 8))
        engine.add_document_terms(doc_id, terms, score=rng.random())
    engine.finalize()
    previous = set_tracing(True)
    try:
        for _ in range(200):
            keywords = rng.sample(vocabulary, 2)
            engine.search(keywords, k=10, conjunctive=False)
        engine.apply_score_updates(
            [(rng.randint(1, 200), rng.random()) for _ in range(64)]
        )
    finally:
        set_tracing(previous)
    return engine


def _render_text(snapshot: dict) -> str:
    lines = []
    engine = snapshot["engine"]
    lines.append(
        "engine: method={method} shards={shards} threads={threads} "
        "durable={durable} tracing={tracing} degraded={degraded}".format(**engine)
    )
    lines.append("")
    lines.append("counters:")
    for name, value in snapshot["metrics"]["counters"].items():
        lines.append(f"  {name} = {value:g}")
    lines.append("histograms:")
    for name, hist in snapshot["metrics"]["histograms"].items():
        lines.append(
            f"  {name}: count={hist['count']} mean={hist['mean']:.3f} "
            f"p50={hist['p50']:.3f} p95={hist['p95']:.3f} "
            f"p99={hist['p99']:.3f} max={hist['max']:.3f}"
        )
    lines.append("shard I/O (lifetime):")
    for row in snapshot["shard_io"]:
        tag = "-" if row["shard"] is None else row["shard"]
        lines.append(
            f"  shard {tag}: reads={row['disk']['reads']} "
            f"writes={row['disk']['writes']} pool_hits={row['pool']['hits']} "
            f"pool_misses={row['pool']['misses']}"
        )
    if snapshot["list_cache"] is not None:
        cache = snapshot["list_cache"]
        lines.append(
            f"list cache: {cache['entries']} entries, "
            f"{cache['used_bytes']}/{cache['budget_bytes']} bytes, "
            f"hits={cache['hits']} misses={cache['misses']} "
            f"score_memo={cache['score_memo_entries']}"
        )
    if snapshot["events"]:
        lines.append("events:")
        for event in snapshot["events"][-20:]:
            shard = "" if event["shard"] is None else f" shard={event['shard']}"
            detail = " ".join(
                f"{key}={value}" for key, value in event.items()
                if key not in ("seq", "kind", "shard", "timestamp")
            )
            lines.append(f"  #{event['seq']} {event['kind']}{shard} {detail}")
    if snapshot["slow_queries"]:
        lines.append("slow queries:")
        for entry in snapshot["slow_queries"]:
            lines.append(
                f"  {entry['duration_ms']:.1f}ms keywords={entry['keywords']}"
            )
    return "\n".join(lines) + "\n"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dump",
        description="Dump an engine's observability snapshot.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--demo", action="store_true",
                        help="build a small demo engine and dump it")
    source.add_argument("--path", help="durable engine directory to inspect")
    parser.add_argument("--format", choices=("json", "prom", "text"),
                        default="text", help="output format (default: text)")
    parser.add_argument("--slow-query-trees", action="store_true",
                        help="include full span trees for recorded slow queries")
    args = parser.parse_args(argv)

    if args.demo:
        engine = _demo_engine()
    else:
        from repro.core.text_index import SVRTextIndex

        engine = SVRTextIndex.open(args.path)
    try:
        snapshot = observability_snapshot(engine)
        if not args.slow_query_trees:
            snapshot["slow_queries"] = [
                {key: value for key, value in entry.items() if key != "tree"}
                for entry in snapshot["slow_queries"]
            ]
        if args.format == "json":
            sys.stdout.write(to_json(snapshot) + "\n")
        elif args.format == "prom":
            sys.stdout.write(to_prometheus_text(engine))
        else:
            sys.stdout.write(_render_text(snapshot))
    finally:
        if args.demo:
            engine.close()
        else:
            # Recovery opened the directory; crash() tears the process state
            # down without committing, leaving the durable files untouched.
            engine.crash()
        SLOW_QUERIES.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
