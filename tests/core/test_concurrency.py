"""Concurrency contract: shared-index clients answer exactly like serial.

The router runs every operation on its caller's thread (ARCHITECTURE.md,
"Concurrent execution"); ``threads > 1`` adds one engine lock and write
combining, and nothing else:

* concurrent clients issuing inserts, deletes, score updates, update windows
  and queries leave contents and top-k answers equal to a serial replay of
  the same acknowledged operations;
* a ``threads > 1`` index never starts a thread;
* a deterministic operation sequence gives identical answers and contents
  whether the index was built for one client or for several;
* write combining is semantically exact (combined == windows applied in
  ticket order), including its per-window error fallback.

Seeds come from ``tests.conftest.UPDATE_STORM_SEEDS``.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index_router import _UpdateTicket
from repro.core.text_index import SVRTextIndex
from tests.conftest import (
    METHOD_OPTIONS,
    SVR_ONLY_METHODS,
    TERMSCORE_METHODS,
    UPDATE_STORM_SEEDS,
    make_corpus,
)
from tests.helpers import reference_top_k

ALL_METHODS = SVR_ONLY_METHODS + TERMSCORE_METHODS

THREAD_GRID = (1, 4)
SHARD_GRID = (1, 4)

VOCABULARY = [f"w{i:03d}" for i in range(16)]


def build_text_index(method: str, corpus, shards: int = 1,
                     threads: int = 1) -> SVRTextIndex:
    index = SVRTextIndex(method=method, shards=shards, threads=threads,
                         cache_pages=512, page_size=512, **METHOD_OPTIONS[method])
    for doc_id, terms, score in corpus:
        index.add_document_terms(doc_id, terms, score)
    index.finalize()
    return index


def mixed_storm(index: SVRTextIndex, rng: random.Random, live: list[int],
                rounds: int = 4) -> list:
    """Drive one deterministic mixed storm; returns the query answers seen."""
    answers = []
    next_id = 900
    for _round in range(rounds):
        for _ in range(8):
            doc_id = rng.choice(live)
            index.update_score(doc_id, round(rng.uniform(0, 3000), 2))
        batch = [(rng.choice(live), round(rng.uniform(0, 3000), 2))
                 for _ in range(24)]
        index.apply_score_updates(batch)
        action = rng.random()
        if action < 0.4:
            next_id += 1
            terms = [rng.choice(VOCABULARY) for _ in range(7)]
            index.insert_document_terms(next_id, terms,
                                        round(rng.uniform(0, 2000), 2))
            live.append(next_id)
        elif action < 0.7 and len(live) > 8:
            victim = rng.choice(live)
            index.delete_document(victim)
            live.remove(victim)
        else:
            target = rng.choice(live)
            index.update_content(target, " ".join(
                rng.choice(VOCABULARY) for _ in range(7)))
        for keywords in ([rng.choice(VOCABULARY)],
                         [rng.choice(VOCABULARY), rng.choice(VOCABULARY)]):
            for conjunctive in (True, False):
                response = index.search(keywords, k=5, conjunctive=conjunctive)
                answers.append(
                    (tuple(keywords), conjunctive,
                     tuple((r.doc_id, r.score) for r in response.results))
                )
    return answers


def logical_contents(index: SVRTextIndex):
    env = index.env
    if not hasattr(env, "kvstore_names"):
        return None
    return {name: list(env.kvstore(name).items())
            for name in env.kvstore_names()}


def final_state(index: SVRTextIndex):
    docs = {}
    scores = {}
    for doc_id in index.documents.doc_ids():
        score = index.current_score(doc_id)
        if score is not None:
            docs[doc_id] = index.documents.get(doc_id).distinct_terms
            scores[doc_id] = score
    return docs, scores


@pytest.mark.parametrize("method", ALL_METHODS)
@pytest.mark.parametrize("threads", THREAD_GRID)
@pytest.mark.parametrize("shards", SHARD_GRID)
def test_threaded_storm_matches_serial(method, threads, shards):
    """A deterministic storm: contents + top-k identical to the serial
    engine at every grid point."""
    seed = UPDATE_STORM_SEEDS[0]
    corpus = make_corpus(random.Random(seed), num_docs=30, vocabulary=16,
                         terms_per_doc=8)
    serial = build_text_index(method, corpus)
    threaded = build_text_index(method, corpus, shards=shards, threads=threads)
    serial_answers = mixed_storm(serial, random.Random(seed + 1),
                                 [doc_id for doc_id, _t, _s in corpus])
    threaded_answers = mixed_storm(threaded, random.Random(seed + 1),
                                   [doc_id for doc_id, _t, _s in corpus])
    assert threaded_answers == serial_answers
    serial_contents = logical_contents(serial)
    threaded_contents = logical_contents(threaded)
    if serial_contents is not None and threaded_contents is not None:
        assert threaded_contents == serial_contents
    # and both agree with the brute-force reference for SVR-only ranking
    if method in SVR_ONLY_METHODS:
        docs, scores = final_state(threaded)
        for keywords in (["w001"], ["w002", "w005"]):
            expected = reference_top_k(docs, scores, set(), keywords, k=5)
            got = [(r.doc_id, r.score)
                   for r in threaded.search(keywords, k=5).results]
            assert got == expected
    threaded.close()
    serial.close()


CLIENTS = 4


def client_script(client: int, rng: random.Random, owned: list[int]) -> list:
    """One client's operations, touching only the documents it owns.

    Clients own disjoint document ids (existing ones by ``doc_id % CLIENTS``,
    inserted ones from a private id range), so the final state does not
    depend on how the clients interleave — a serial replay of every
    client's acknowledged operations, client after client, must reproduce it.
    """
    live = list(owned)
    next_id = 1000 * (client + 1)
    ops = []
    for _ in range(16):
        action = rng.random()
        if action < 0.3:
            ops.append(("window", [(rng.choice(live), round(rng.uniform(0, 3000), 2))
                                   for _ in range(6)]))
        elif action < 0.45:
            ops.append(("update", rng.choice(live), round(rng.uniform(0, 3000), 2)))
        elif action < 0.6:
            next_id += 1
            ops.append(("insert", next_id, [rng.choice(VOCABULARY) for _ in range(7)],
                        round(rng.uniform(0, 2000), 2)))
            live.append(next_id)
        elif action < 0.7 and len(live) > 3:
            victim = rng.choice(live)
            live.remove(victim)
            ops.append(("delete", victim))
        elif action < 0.8:
            ops.append(("content", rng.choice(live),
                        " ".join(rng.choice(VOCABULARY) for _ in range(7))))
        else:
            ops.append(("query", [rng.choice(VOCABULARY), rng.choice(VOCABULARY)],
                        bool(rng.getrandbits(1))))
    return ops


def apply_op(index: SVRTextIndex, op) -> None:
    kind = op[0]
    if kind == "window":
        index.apply_score_updates(list(op[1]))
    elif kind == "update":
        index.update_score(op[1], op[2])
    elif kind == "insert":
        index.insert_document_terms(op[1], op[2], op[3])
    elif kind == "delete":
        index.delete_document(op[1])
    elif kind == "content":
        index.update_content(op[1], op[2])
    else:
        response = index.search(op[1], k=5, conjunctive=op[2])
        scores = [result.score for result in response.results]
        assert scores == sorted(scores, reverse=True)


def probe_answers(index: SVRTextIndex) -> list:
    return [
        [(r.doc_id, r.score) for r in index.search(keywords, k=6,
                                                   conjunctive=conjunctive).results]
        for keywords in (["w001"], ["w002", "w005"], ["w003", "w007"])
        for conjunctive in (True, False)
    ]


@pytest.mark.parametrize("method", ALL_METHODS)
@pytest.mark.parametrize("shards", SHARD_GRID)
def test_concurrent_clients_match_serial_replay(method, shards):
    """4 client threads on one index == a serial replay of their acked ops."""
    seed = UPDATE_STORM_SEEDS[3]
    corpus = make_corpus(random.Random(seed), num_docs=32, vocabulary=16,
                         terms_per_doc=8)
    doc_ids = [doc_id for doc_id, _t, _s in corpus]
    scripts = [
        client_script(client, random.Random(seed * 10 + client),
                      [doc_id for doc_id in doc_ids if doc_id % CLIENTS == client])
        for client in range(CLIENTS)
    ]
    shared = build_text_index(method, corpus, shards=shards, threads=CLIENTS)
    acked: list[list] = [[] for _ in range(CLIENTS)]
    errors: list[BaseException] = []
    start = threading.Barrier(CLIENTS)

    def client(number: int) -> None:
        start.wait(timeout=30)
        for op in scripts[number]:
            try:
                apply_op(shared, op)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)
                return
            acked[number].append(op)

    threads = [threading.Thread(target=client, args=(number,))
               for number in range(CLIENTS)]
    # Preempt every few microseconds so operations genuinely interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    replay = build_text_index(method, corpus, shards=shards)
    for ops in acked:
        for op in ops:
            apply_op(replay, op)
    try:
        assert final_state(shared) == final_state(replay)
        assert logical_contents(shared) == logical_contents(replay)
        assert probe_answers(shared) == probe_answers(replay)
    finally:
        shared.close()
        replay.close()


def test_shared_index_starts_no_thread():
    """``threads > 1`` is a lock and write combining, never a worker."""
    seed = UPDATE_STORM_SEEDS[0]
    corpus = make_corpus(random.Random(seed), num_docs=20, vocabulary=12,
                         terms_per_doc=6)
    before = threading.active_count()
    index = build_text_index("chunk", corpus, shards=4, threads=4)
    assert threading.active_count() == before
    index.search(["w001", "w002"], k=5, conjunctive=False)
    assert threading.active_count() == before
    index.apply_score_updates([(1, 500.0), (2, 750.0)])
    assert threading.active_count() == before
    index.close()


@pytest.mark.parametrize("method", ("chunk", "id", "score_threshold"))
def test_concurrent_service_clients_stay_consistent(method):
    """A genuinely concurrent storm leaves a consistent, queryable index."""
    from repro.workloads.queries import KeywordQuery
    from repro.workloads.service import ServiceLoadConfig, ServiceLoadDriver
    from repro.workloads.updates import ScoreUpdate

    seed = UPDATE_STORM_SEEDS[2]
    rng = random.Random(seed)
    corpus = make_corpus(rng, num_docs=40, vocabulary=16, terms_per_doc=8)
    index = build_text_index(method, corpus, shards=4, threads=4)
    queries = [
        KeywordQuery(keywords=(rng.choice(VOCABULARY), rng.choice(VOCABULARY)),
                     k=5, conjunctive=bool(rng.getrandbits(1)))
        for _ in range(12)
    ]
    updates = [
        ScoreUpdate(doc_id=rng.choice(range(1, 41)),
                    delta=round(rng.uniform(-80, 120), 2))
        for _ in range(400)
    ]
    driver = ServiceLoadDriver(
        ServiceLoadConfig(num_clients=4, query_fraction=0.5, batch_window=16,
                          seed=seed),
        queries, updates,
    )
    result = driver.run(index)
    assert result.queries_run == len(queries)
    assert result.update_windows > 0
    assert len(result.query_latencies_ms) == result.queries_run
    # after the dust settles, answers match the brute-force reference
    docs, scores = final_state(index)
    if method in SVR_ONLY_METHODS:
        for keywords in (["w001"], ["w003", "w007"]):
            expected = reference_top_k(docs, scores, set(), keywords, k=5)
            got = [(r.doc_id, r.score)
                   for r in index.search(keywords, k=5).results]
            assert got == expected
    index.close()


def test_write_combining_equals_sequential_windows():
    """A combined drain leaves exactly the state of windows applied in order."""
    seed = UPDATE_STORM_SEEDS[0]
    corpus = make_corpus(random.Random(seed), num_docs=25, vocabulary=12,
                         terms_per_doc=6)
    rng = random.Random(seed + 7)
    windows = [
        [(rng.randrange(1, 26), round(rng.uniform(0, 2000), 2))
         for _ in range(10)]
        for _ in range(5)
    ]
    combined = build_text_index("chunk", corpus, shards=4, threads=4)
    serial = build_text_index("chunk", corpus)
    tickets = [_UpdateTicket(list(window)) for window in windows]
    combined.router._drain_windows(tickets)
    assert combined.router.combined_windows == len(windows) - 1
    for ticket in tickets:
        assert ticket.resolve() == len(ticket.updates)
    for window in windows:
        serial.apply_score_updates(list(window))
    assert logical_contents(combined) == logical_contents(serial)
    combined.close()
    serial.close()


def test_write_combining_error_fallback_isolates_bad_window():
    """A bad window fails alone; its neighbours in the drain still apply."""
    seed = UPDATE_STORM_SEEDS[1]
    corpus = make_corpus(random.Random(seed), num_docs=20, vocabulary=12,
                         terms_per_doc=6)
    index = build_text_index("chunk", corpus, shards=2, threads=4)
    serial = build_text_index("chunk", corpus)
    good_a = [(1, 500.0), (2, 750.0)]
    bad = [(9999, 100.0)]  # unknown document
    good_b = [(3, 125.0)]
    tickets = [_UpdateTicket(list(good_a)), _UpdateTicket(list(bad)),
               _UpdateTicket(list(good_b))]
    index.router._drain_windows(tickets)
    assert tickets[0].resolve() == 2
    with pytest.raises(Exception):
        tickets[1].resolve()
    assert tickets[2].resolve() == 1
    serial.apply_score_updates(good_a)
    serial.apply_score_updates(good_b)
    assert logical_contents(index) == logical_contents(serial)
    index.close()
    serial.close()


@settings(deadline=None, max_examples=15)
@given(
    schedule=st.lists(
        st.one_of(
            st.tuples(st.just("window"),
                      st.lists(st.tuples(st.integers(1, 24),
                                         st.floats(0.0, 2000.0)),
                               min_size=1, max_size=8)),
            st.tuples(st.just("query"),
                      st.lists(st.sampled_from(VOCABULARY[:10]),
                               min_size=1, max_size=2)),
        ),
        min_size=1, max_size=12,
    )
)
def test_interleaved_schedule_property(schedule):
    """Any interleaving of windows and queries matches the serial engine."""
    corpus = make_corpus(random.Random(99), num_docs=24, vocabulary=10,
                         terms_per_doc=6)
    serial = build_text_index("chunk", corpus)
    threaded = build_text_index("chunk", corpus, shards=4, threads=4)
    try:
        for kind, payload in schedule:
            if kind == "window":
                applied_serial = serial.apply_score_updates(list(payload))
                applied_threaded = threaded.apply_score_updates(list(payload))
                assert applied_threaded == applied_serial
            else:
                expected = [(r.doc_id, r.score)
                            for r in serial.search(payload, k=4,
                                                   conjunctive=False).results]
                got = [(r.doc_id, r.score)
                       for r in threaded.search(payload, k=4,
                                                conjunctive=False).results]
                assert got == expected
        assert logical_contents(threaded) == logical_contents(serial)
    finally:
        threaded.close()
        serial.close()
