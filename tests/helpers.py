"""Shared helpers for the test suite.

The most important helper is :func:`reference_top_k`, a brute-force
re-implementation of the paper's query semantics: rank the documents matching
the keywords by their *latest* scores.  Every index method must produce exactly
the same answer (Theorems 1 and 2), which is what the equivalence and
property-based tests check.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.indexes.base import InvertedIndex
from repro.storage.environment import StorageEnvironment
from repro.text.documents import DocumentStore


def reference_top_k(
    documents: Mapping[int, set[str]],
    scores: Mapping[int, float],
    deleted: set[int],
    keywords: Sequence[str],
    k: int,
    conjunctive: bool = True,
    term_scores: Mapping[int, Mapping[str, float]] | None = None,
    term_weight: float = 1.0,
) -> list[tuple[int, float]]:
    """Ground-truth top-k: (doc_id, score) pairs, best first.

    ``term_scores`` maps doc -> term -> per-term score; when provided, the
    combined scoring function ``svr + term_weight * sum(term scores over the
    matching keywords)`` is used (the §4.3.3 combination).
    Ties are broken towards smaller document ids, matching
    :class:`repro.core.result_heap.ResultHeap`.
    """
    matches: list[tuple[int, float]] = []
    for doc_id, terms in documents.items():
        if doc_id in deleted or doc_id not in scores:
            continue
        contained = [keyword for keyword in keywords if keyword in terms]
        if conjunctive and len(contained) != len(keywords):
            continue
        if not conjunctive and not contained:
            continue
        score = scores[doc_id]
        if term_scores is not None:
            score += term_weight * sum(
                term_scores.get(doc_id, {}).get(keyword, 0.0) for keyword in contained
            )
        matches.append((doc_id, score))
    matches.sort(key=lambda item: (-item[1], item[0]))
    return matches[:k]


def normalized_tf(terms: Sequence[str]) -> dict[str, float]:
    """Normalised term frequencies of a term sequence (the TermScore per-term score)."""
    counts: dict[str, int] = {}
    for term in terms:
        counts[term] = counts.get(term, 0) + 1
    total = len(terms)
    if total == 0:
        return {}
    return {term: count / total for term, count in counts.items()}


def build_index(method: str, corpus: Iterable[tuple[int, Sequence[str], float]],
                cache_pages: int = 512, **options):
    """Build a raw :class:`InvertedIndex` (not the text-index facade) over a corpus.

    ``corpus`` yields ``(doc_id, terms, score)`` triples.  Returns the index;
    its document store and environment are reachable as attributes.
    """
    from repro.core.indexes.registry import create_index

    env = StorageEnvironment(cache_pages=cache_pages)
    documents = DocumentStore()
    index = create_index(method, env, documents, **options)
    for doc_id, terms, score in corpus:
        index.add_document(doc_id, score, terms=terms)
    index.finalize()
    return index


def query_doc_scores(index: InvertedIndex, keywords: Sequence[str], k: int,
                     conjunctive: bool = True) -> list[tuple[int, float]]:
    """Run a query and return (doc_id, score) pairs for comparison with the reference."""
    response = index.query(keywords, k=k, conjunctive=conjunctive)
    return [(result.doc_id, result.score) for result in response.results]


def _plain_env(env):
    """Unwrap a single-shard ShardedEnvironment to its one plain environment.

    A single-shard sharded environment is physically fingerprint-identical
    to the plain engine, so the physical helpers below reach through to the
    one shard.
    """
    shards = getattr(env, "shards", None)
    if shards is not None and len(shards) == 1:
        return shards[0]
    return env


def category_fingerprint(env: StorageEnvironment) -> dict:
    """Every buffer-pool and disk accounting category of one environment.

    Shared by the sharding fidelity tests: two engines are only
    fingerprint-identical when every one of these counters matches.  A
    sharded environment reports the per-category sums (its aggregation
    contract).
    """
    snapshot = env.snapshot()
    pool, disk = snapshot.pool, snapshot.disk
    return {
        "hits": pool.hits, "misses": pool.misses, "evictions": pool.evictions,
        "dirty_writebacks": pool.dirty_writebacks,
        "reads": disk.reads, "writes": disk.writes,
        "random_reads": disk.random_reads,
        "sequential_reads": disk.sequential_reads,
        "bytes_read": disk.bytes_read, "bytes_written": disk.bytes_written,
    }


def disk_page_bytes(env: StorageEnvironment) -> dict[int, bytes]:
    """Every on-disk page's payload bytes (flushing frames first so dirty
    decoded nodes materialise)."""
    env = _plain_env(env)
    env.pool.flush()
    disk = env.disk
    return {
        page_id: disk.peek(page_id).data
        for page_id in range(disk._next_page_id)
        if disk.contains(page_id)
    }
