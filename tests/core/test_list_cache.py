"""Hot-term inverted-list cache: correctness under every write/failure event.

The :class:`~repro.core.list_cache.InvertedListCache` keeps *decoded* long-list
postings in memory, keyed by segment, and a memo of query-time Score-table
lookups.  Writes never touch a long list, so entries live across writes; a
write forgets only the memoised scores of the documents it changes.  The
cache's one hard obligation is to never answer differently from the uncached
engine.  This suite checks it:

* **unit layer** — byte-budget admission, LRU eviction, per-document score
  forgetting, per-shard invalidation;
* **equivalence matrix** — cache-on answers equal cache-off answers across all
  six index methods x shards {1, 4} x threads {1, 4}, interleaved with
  sequential score updates, batched update windows, inserts, deletes and
  content updates, plus a seeded ~300-operation interleaving per method and
  shard count;
* **write entry points** — each keeps the list entries and forgets exactly
  its documents' scores, also when it raises halfway;
* **failure domains** — shard quarantine and ``reopen_shard`` drop the
  shard's entries (a recovered shard may have rolled back past the postings a
  cached entry was decoded from);
* **durability** — a recovered index starts with a *cold* cache (entries are
  excluded from the durability blob).
"""

from __future__ import annotations

import random

import pytest

from repro.core.list_cache import InvertedListCache, list_cache_pages_from_environ
from repro.core.text_index import SVRTextIndex
from repro.errors import InvertedIndexError, TransientIOError
from repro.storage.sharding import shard_of_term
from tests.conftest import METHOD_OPTIONS, SVR_ONLY_METHODS, TERMSCORE_METHODS, make_corpus
from tests.helpers import ReferenceModel, build_index, query_doc_scores

ALL_METHODS = SVR_ONLY_METHODS + TERMSCORE_METHODS

#: Pages granted to the hot-term cache in the equivalence matrix; with the
#: 4096-byte default page size this comfortably admits every long list of the
#: small corpora, so the cache actually serves hits rather than idling.
CACHE_PAGES = 8


# ---------------------------------------------------------------------------
# Unit layer
# ---------------------------------------------------------------------------


class TestInvertedListCacheUnit:
    def test_environ_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_LIST_CACHE_PAGES", raising=False)
        assert list_cache_pages_from_environ() == 0
        monkeypatch.setenv("REPRO_LIST_CACHE_PAGES", "64")
        assert list_cache_pages_from_environ() == 64
        monkeypatch.setenv("REPRO_LIST_CACHE_PAGES", "-1")
        with pytest.raises(InvertedIndexError):
            list_cache_pages_from_environ()
        monkeypatch.setenv("REPRO_LIST_CACHE_PAGES", "lots")
        with pytest.raises(InvertedIndexError):
            list_cache_pages_from_environ()

    def test_hit_miss_and_lru_eviction(self):
        cache = InvertedListCache(budget_bytes=100)
        assert cache.get(None, "a") is None
        assert cache.put(None, "a", [(1, 0.0)], nbytes=40)
        assert cache.put(None, "b", [(2, 0.0)], nbytes=40)
        assert cache.get(None, "a") == [(1, 0.0)]  # refreshes a's recency
        assert cache.put(None, "c", [(3, 0.0)], nbytes=40)  # evicts b, not a
        assert cache.get(None, "b") is None
        assert cache.get(None, "a") == [(1, 0.0)]
        assert cache.get(None, "c") == [(3, 0.0)]
        assert cache.used_bytes == 80
        assert cache.stats.evictions == 1

    def test_oversized_entry_rejected(self):
        cache = InvertedListCache(budget_bytes=100)
        assert not cache.put(None, "huge", [(1, 0.0)], nbytes=101)
        assert len(cache) == 0 and cache.used_bytes == 0

    def test_replacing_entry_recharges_budget(self):
        cache = InvertedListCache(budget_bytes=100)
        cache.put(None, "a", [(1, 0.0)], nbytes=60)
        cache.put(None, "a", [(1, 0.0), (2, 0.0)], nbytes=80)
        assert cache.used_bytes == 80 and len(cache) == 1

    def test_forget_scores_drops_only_the_given_documents(self):
        cache = InvertedListCache(budget_bytes=100)
        cache.put(0, 3, [(1, 0.0)], nbytes=10)
        cache.scores.update({7: 1.5, 8: None, 9: 2.0})
        cache.forget_scores([7, 8, 42])  # 42 was never memoised
        assert cache.scores == {9: 2.0}
        assert cache.get(0, 3) == [(1, 0.0)] and cache.used_bytes == 10
        assert cache.stats.invalidations == 0

    def test_invalidate_shard_is_selective_for_lists_only(self):
        cache = InvertedListCache(budget_bytes=100)
        cache.put(0, "a", [(1, 0.0)], nbytes=10)
        cache.put(1, "b", [(2, 0.0)], nbytes=20)
        cache.scores[7] = 1.5
        cache.invalidate_shard(1)
        assert cache.get(0, "a") == [(1, 0.0)]
        assert cache.get(1, "b") is None
        # Scores are not shard-partitioned: the memo drops conservatively.
        assert not cache.scores
        assert cache.used_bytes == 10


# ---------------------------------------------------------------------------
# Equivalence matrix: six methods x shards x threads, writes interleaved
# ---------------------------------------------------------------------------


_PROBES = (
    (["w001", "w004"], 3, True),
    (["w001", "w004"], 10, True),
    (["w002", "w007", "w011"], 5, True),
    (["w003"], 10, False),
    (["w005", "w009"], 10, False),
)


def _snapshot(index: SVRTextIndex) -> list:
    """Top-k answers over the probe workload, as comparable tuples."""
    out = []
    for keywords, k, conjunctive in _PROBES:
        response = index.search(keywords, k=k, conjunctive=conjunctive)
        out.append([(r.doc_id, r.score) for r in response.results])
    return out


def _build_pair(method: str, shards: int, threads: int):
    """The same corpus behind a cache-on and a cache-off text index."""
    corpus = make_corpus(random.Random(97), num_docs=40, vocabulary=25)
    indexes = []
    for pages in (CACHE_PAGES, 0):
        index = SVRTextIndex(
            method=method, shards=shards, threads=threads, cache_pages=256,
            list_cache_pages=pages,
            **METHOD_OPTIONS[method],
        )
        for doc_id, terms, score in corpus:
            index.add_document_terms(doc_id, terms, score)
        index.finalize()
        indexes.append(index)
    return indexes[0], indexes[1]


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_cache_on_equals_cache_off_under_writes(method, shards, threads):
    cached, plain = _build_pair(method, shards, threads)
    try:
        # Fresh build: first pass fills the cache, second pass serves from it.
        assert _snapshot(cached) == _snapshot(plain)
        assert _snapshot(cached) == _snapshot(plain)

        rng = random.Random(5)
        live = [doc_id for doc_id, _terms, _score in make_corpus(
            random.Random(97), num_docs=40, vocabulary=25)]

        # Sequential score updates.
        for _ in range(6):
            doc_id = rng.choice(live)
            score = round(rng.uniform(0.0, 1000.0), 2)
            cached.update_score(doc_id, score)
            plain.update_score(doc_id, score)
        assert _snapshot(cached) == _snapshot(plain)

        # A batched update window (the group-commit path).
        window = [(rng.choice(live), round(rng.uniform(0.0, 1000.0), 2))
                  for _ in range(8)]
        cached.apply_score_updates(window)
        plain.apply_score_updates(window)
        assert _snapshot(cached) == _snapshot(plain)

        # Insert, content update, delete.
        new_terms = ["w001", "w004", "w019"]
        cached.insert_document_terms(900, new_terms, 512.0)
        plain.insert_document_terms(900, new_terms, 512.0)
        assert _snapshot(cached) == _snapshot(plain)

        cached.update_content(900, "w002 w004 w007")
        plain.update_content(900, "w002 w004 w007")
        assert _snapshot(cached) == _snapshot(plain)

        victim = live.pop(0)
        cached.delete_document(victim)
        plain.delete_document(victim)
        assert _snapshot(cached) == _snapshot(plain)
    finally:
        cached.close()
        plain.close()


def test_cache_actually_serves_hits():
    """Guard the matrix against passing vacuously: the cache must engage."""
    cached, plain = _build_pair("chunk", shards=1, threads=1)
    try:
        _snapshot(cached)
        _snapshot(cached)
        cache = cached.index.list_cache
        assert cache is not None and len(cache) > 0
        assert cache.stats.hits > 0
        assert plain.index.list_cache is None
    finally:
        cached.close()
        plain.close()

@pytest.mark.parametrize("method", ["id", "chunk", "score_threshold"])
def test_cache_survives_each_write_entry_point(method):
    """A write keeps every list entry and forgets only its documents' scores."""
    cached, plain = _build_pair(method, shards=1, threads=1)
    cache = cached.index.list_cache
    writes = [
        ((3,), lambda i: i.update_score(3, 999.5)),
        ((4, 5), lambda i: i.apply_score_updates([(4, 1.25), (5, 800.0)])),
        ((901,), lambda i: i.insert_document_terms(901, ["w001", "w004"], 700.0)),
        ((901,), lambda i: i.update_content(901, "w004 w009")),
        ((901,), lambda i: i.delete_document(901)),
    ]
    try:
        for written, write in writes:
            _snapshot(cached)  # fill entries and the score memo
            entries = set(cache._entries)
            assert entries
            kept = next(doc_id for doc_id in cache.scores if doc_id not in written)
            kept_score = cache.scores[kept]
            write(cached)
            write(plain)
            assert set(cache._entries) == entries
            assert not set(written) & set(cache.scores)
            assert cache.scores[kept] == kept_score
            hits, misses = cache.stats.hits, cache.stats.misses
            assert _snapshot(cached) == _snapshot(plain)
            assert cache.stats.hits > hits and cache.stats.misses == misses
        assert cache.stats.invalidations == 0
    finally:
        cached.close()
        plain.close()


def _interleave(cached: SVRTextIndex, plain: SVRTextIndex, seed: int,
                operations: int = 300) -> None:
    """A seeded mix of writes and queries applied to both indexes; every
    query's results and scores must agree, and answer the query."""
    rng = random.Random(seed)
    vocab = [f"w{i:03d}" for i in range(25)]
    model = ReferenceModel(cached.method)
    for doc_id, terms, score in make_corpus(random.Random(97), num_docs=40,
                                            vocabulary=25):
        model.insert(doc_id, terms, score)
    deleted: list[int] = []
    for step in range(operations):
        live = model.live
        roll = rng.random()
        if roll < 0.35:
            keywords = rng.sample(vocab, rng.randint(1, 3))
            k = rng.choice([1, 5, 10])
            conjunctive = rng.random() < 0.5
            results = [index.search(keywords, k=k, conjunctive=conjunctive).results
                       for index in (cached, plain)]
            assert results[0] == results[1], (step, keywords, conjunctive)
            model.check(results[0], keywords, k, conjunctive)
            continue
        if roll < 0.55:
            doc_id = rng.choice(live)
            score = round(rng.uniform(0.0, 1000.0), 2)
            model.update_score(doc_id, score)
            write = lambda i: i.update_score(doc_id, score)
        elif roll < 0.7:
            window = [(rng.choice(live), round(rng.uniform(0.0, 1000.0), 2))
                      for _ in range(rng.randint(2, 12))]
            for doc_id, score in window:
                model.update_score(doc_id, score)
            write = lambda i: i.apply_score_updates(window)
        elif roll < 0.8:
            doc_id = rng.choice(live)
            deleted.append(doc_id)
            model.delete(doc_id)
            write = lambda i: i.delete_document(doc_id)
        elif roll < 0.9 and deleted:
            doc_id = deleted.pop(rng.randrange(len(deleted)))
            old = model.scores[doc_id]
            score = round(rng.choice(
                [rng.uniform(0.0, old), rng.uniform(old, 1000.0)]), 2)
            terms = rng.sample(vocab, rng.randint(2, 6))
            model.insert(doc_id, terms, score)
            write = lambda i: i.insert_document_terms(doc_id, terms, score)
        else:
            doc_id = rng.choice(live)
            text = " ".join(rng.sample(vocab, rng.randint(2, 6)))
            model.update_content(doc_id, text.split())
            write = lambda i: i.update_content(doc_id, text)
        write(cached)
        write(plain)


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_cache_on_equals_cache_off_over_a_long_interleaving(method, shards):
    cached, plain = _build_pair(method, shards, threads=1)
    try:
        _interleave(cached, plain, seed=31)
        stats = cached.index.list_cache.stats
        opens = stats.hits + stats.misses
        if method == "score":  # postings live in a clustered B+-tree
            assert opens == 0
        else:
            assert opens > 0 and stats.hits >= opens / 2
        assert stats.invalidations == 0
    finally:
        cached.close()
        plain.close()


def test_failed_write_leaves_no_memoised_score_of_its_window(monkeypatch):
    """A window whose Score-table pass raises after a prefix forgets every
    document of the window, and both indexes still answer alike."""
    cached, plain = _build_pair("chunk", shards=1, threads=1)
    try:
        _snapshot(cached)
        cache = cached.index.list_cache
        window = [(doc_id, 999.0 - doc_id) for doc_id in sorted(cache.scores)[:6]]
        assert len(window) == 6
        for index in (cached, plain):
            table = index.index.score_table
            put_many = table.put_many

            def torn(items, put_many=put_many):
                put_many(list(items)[:3])
                raise TransientIOError("torn Score-table pass")

            monkeypatch.setattr(table, "put_many", torn)
            with pytest.raises(TransientIOError):
                index.apply_score_updates(window)
            monkeypatch.setattr(table, "put_many", put_many)
        assert not {doc_id for doc_id, _score in window} & set(cache.scores)
        assert _snapshot(cached) == _snapshot(plain)
    finally:
        cached.close()
        plain.close()


# ---------------------------------------------------------------------------
# Failure domains: quarantine + reopen_shard
# ---------------------------------------------------------------------------


def _durable_pair(tmp_path, list_cache_pages: int = CACHE_PAGES):
    corpus = make_corpus(random.Random(97), num_docs=40, vocabulary=25)
    indexes = []
    for tag, pages in (("on", list_cache_pages), ("off", 0)):
        index = SVRTextIndex(
            method="chunk", shards=4, cache_pages=256,
            list_cache_pages=pages, path=str(tmp_path / f"cache-{tag}"),
            **METHOD_OPTIONS["chunk"],
        )
        for doc_id, terms, score in corpus:
            index.add_document_terms(doc_id, terms, score)
        index.finalize()
        index.checkpoint()
        indexes.append(index)
    return indexes[0], indexes[1]


def test_quarantine_and_reopen_drop_shard_entries(tmp_path):
    cached, plain = _durable_pair(tmp_path)
    try:
        _snapshot(cached)
        cache = cached.index.list_cache
        shards_cached = {shard for shard, _term in cache._entries}
        assert shards_cached, "probe queries must populate the cache"
        victim = sorted(shards_cached)[0]

        cached.router.quarantine_shard(victim, "test quarantine")
        plain.router.quarantine_shard(victim, "test quarantine")
        assert all(shard != victim for shard, _term in cache._entries)
        # Degraded answers still match cache-off degraded answers.
        assert _snapshot(cached) == _snapshot(plain)

        cached.reopen_shard(victim)
        plain.reopen_shard(victim)
        assert all(shard != victim for shard, _term in cache._entries)
        assert _snapshot(cached) == _snapshot(plain)
        assert _snapshot(cached) == _snapshot(plain)  # cache refilled, still equal
    finally:
        cached.close()
        plain.close()


def test_reopen_never_serves_rolled_back_postings(tmp_path):
    """A shard recovered to an older commit must not answer from stale cache.

    The insert after the checkpoint is never committed, so ``reopen_shard``
    rolls the victim shard back past it; a cache entry decoded from the
    pre-reopen postings would still contain the inserted document.
    """
    cached, plain = _durable_pair(tmp_path)
    try:
        probe_term = "w001"
        victim = shard_of_term(probe_term, cached.shard_count)
        doc_id = 3001
        while (doc_id % cached.shard_count) != victim:
            doc_id += 1
        for index in (cached, plain):
            index.insert_document_terms(doc_id, [probe_term], 999.0)
        _snapshot(cached)  # cache the post-insert postings
        for index in (cached, plain):
            index.router.quarantine_shard(victim, "test quarantine")
            index.reopen_shard(victim)
        assert _snapshot(cached) == _snapshot(plain)
        hits = {r[0] for results in _snapshot(cached) for r in results}
        assert doc_id not in hits, "rolled-back insert leaked from the cache"
    finally:
        cached.close()
        plain.close()


# ---------------------------------------------------------------------------
# Durability: recovery starts cold
# ---------------------------------------------------------------------------


def test_recovered_index_starts_with_cold_cache(tmp_path):
    cached, plain = _durable_pair(tmp_path)
    before = _snapshot(cached)
    assert len(cached.index.list_cache) > 0
    cached.commit()
    plain.commit()
    cached.close()
    plain.close()

    recovered = SVRTextIndex.open(str(tmp_path / "cache-on"))
    recovered_plain = SVRTextIndex.open(str(tmp_path / "cache-off"))
    try:
        cache = recovered.index.list_cache
        assert cache is not None, "list_cache_pages must survive in the options blob"
        assert len(cache) == 0 and not cache.scores
        assert _snapshot(recovered) == before
        assert _snapshot(recovered) == _snapshot(recovered_plain)
    finally:
        recovered.close()
        recovered_plain.close()
