"""Index-level durability: reopen equality, crash sweeps, backend fidelity.

Three guarantees, each pinned for every index method:

* **reopen-after-checkpoint** — a closed durable index reopens with the same
  contents and the same top-k answers as a memory twin that saw the same
  history;
* **crash-point sweep** — a crash injected at any batch boundary (with an
  uncommitted partial batch in flight) recovers to exactly the committed
  prefix: scripted runs of the state machine, whose recovery check holds
  the engine to the reference model's committed snapshot;
* **accounting fidelity** — building, updating and cold-cache querying an
  index produces identical per-category ``DiskStats``/``BufferPoolStats``
  fingerprints on the memory and file backends (the fig7/table1 acceptance
  criterion, at test scale).
"""

from __future__ import annotations

import random

import pytest

from tests.conftest import METHOD_OPTIONS, make_corpus
from tests.core.test_state_machine import scripted_machine, scripted_window
from tests.helpers import category_fingerprint
from repro.core.text_index import SVRTextIndex
from repro.errors import StorageError
from repro.workloads.updates import UpdateWorkload, UpdateWorkloadConfig

ALL_METHODS = sorted(METHOD_OPTIONS)


def _build(index, corpus):
    for doc_id, terms, score in corpus:
        index.add_document_terms(doc_id, terms, score)
    index.finalize()
    return index


def _storm(corpus, count, seed=11):
    scores = {doc_id: score for doc_id, _terms, score in corpus}
    workload = UpdateWorkload(
        UpdateWorkloadConfig(num_updates=count, seed=seed), scores
    )
    return workload.generate_list()


def _apply(index, updates):
    for update in updates:
        current = index.current_score(update.doc_id)
        if current is not None:
            index.update_score(update.doc_id, update.apply_to(current))


def _queries(corpus, count=6):
    frequency: dict[str, int] = {}
    for _doc_id, terms, _score in corpus:
        for term in set(terms):
            frequency[term] = frequency.get(term, 0) + 1
    ranked = sorted(frequency, key=lambda term: (-frequency[term], term))
    return [[term] for term in ranked[:count]]


# ---------------------------------------------------------------------------
# Reopen-after-checkpoint equality (all six methods)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ALL_METHODS)
def test_reopen_after_checkpoint_equals_memory_twin(method, rng, tmp_path):
    corpus = make_corpus(rng, num_docs=30, vocabulary=20, terms_per_doc=8)
    updates = _storm(corpus, 60)
    options = METHOD_OPTIONS[method]

    durable = SVRTextIndex(method=method, path=str(tmp_path / "idx"),
                           cache_pages=128, page_size=512, **options)
    _build(durable, corpus)
    _apply(durable, updates)
    durable.insert_document_terms(999, ["w001", "w002", "fresh"], 555.0)
    durable.delete_document(5)
    durable.close()

    twin = SVRTextIndex(method=method, cache_pages=128, page_size=512, **options)
    _build(twin, corpus)
    _apply(twin, updates)
    twin.insert_document_terms(999, ["w001", "w002", "fresh"], 555.0)
    twin.delete_document(5)

    reopened = SVRTextIndex.open(str(tmp_path / "idx"))
    assert reopened.method == method
    assert reopened.document_count() == twin.document_count()
    for doc_id in sorted(twin.documents.doc_ids()):
        assert reopened.current_score(doc_id) == twin.current_score(doc_id)
    for keywords in _queries(corpus):
        expected = [(r.doc_id, r.score)
                    for r in twin.search(keywords, k=5).results]
        actual = [(r.doc_id, r.score)
                  for r in reopened.search(keywords, k=5).results]
        assert actual == expected, (method, keywords)
    # the reopened index keeps accepting updates and batches
    reopened.apply_score_updates([(999, 1.0)])
    assert reopened.current_score(999) == 1.0
    reopened.close()
    twin.close()


@pytest.mark.parametrize("method", ("chunk", "score"))
def test_reopen_sharded_index(method, rng, tmp_path):
    corpus = make_corpus(rng, num_docs=24, vocabulary=18, terms_per_doc=8)
    options = METHOD_OPTIONS[method]
    durable = SVRTextIndex(method=method, path=str(tmp_path / "idx"),
                           cache_pages=128, page_size=512, shards=3, **options)
    _build(durable, corpus)
    _apply(durable, _storm(corpus, 40))
    expected = {doc_id: durable.current_score(doc_id)
                for doc_id, _t, _s in corpus}
    durable.close()

    reopened = SVRTextIndex.open(str(tmp_path / "idx"))
    assert reopened.shard_count == 3
    for doc_id, score in expected.items():
        assert reopened.current_score(doc_id) == score
    reopened.close()


# ---------------------------------------------------------------------------
# Crash-point sweep (the acceptance criterion)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ALL_METHODS)
def test_crash_at_every_batch_boundary_recovers_committed_prefix(method):
    """One lineage crashes at every boundary, with updates in flight: before
    the first window, then after each committed (or checkpointed) one."""
    rng = random.Random(11)
    with scripted_machine(method) as machine:
        for boundary in range(4):
            if boundary:
                machine.apply_score_updates(scripted_window(rng, 12))
                machine.commit(checkpoint=boundary % 2 == 0)
            for pick, score in scripted_window(rng, 5):
                machine.update_score(pick, score, deleted=False)
            machine.crash_and_recover()


def test_crash_storm_with_document_churn():
    rng = random.Random(11)
    with scripted_machine("chunk") as machine:
        for batch in range(3):
            if batch % 2 == 0:
                machine.insert(["churn", f"churn{batch}"], 50.0 * (batch + 1))
            else:
                machine.delete(0)
            machine.apply_score_updates(scripted_window(rng, 10))
            machine.commit(checkpoint=False)
        lost = machine.next_doc
        machine.insert(["churn", "lost"], 999.0)
        machine.delete(3)
        machine.crash_and_recover()
        assert machine.index.current_score(lost) is None


def test_crash_storm_sharded():
    rng = random.Random(11)
    with scripted_machine("score_threshold", shards=2) as machine:
        for _batch in range(2):
            machine.apply_score_updates(scripted_window(rng, 10))
            machine.commit(checkpoint=False)
        machine.apply_score_updates(scripted_window(rng, 5))
        machine.crash_and_recover()


# ---------------------------------------------------------------------------
# Backend accounting fidelity (fig7/table1 criterion at test scale)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ALL_METHODS)
def test_file_backend_fingerprint_identical_to_memory(method, rng, tmp_path):
    """Build + update storm + cold-cache queries: identical counters per category."""
    corpus = make_corpus(rng, num_docs=30, vocabulary=20, terms_per_doc=8)
    updates = _storm(corpus, 50)
    queries = _queries(corpus, count=4)
    options = METHOD_OPTIONS[method]

    def workload(index):
        _build(index, corpus)
        _apply(index, updates)
        for keywords in queries:
            index.drop_long_list_cache()
            index.search(keywords, k=5)
        return index

    memory = workload(
        SVRTextIndex(method=method, cache_pages=64, page_size=512, **options)
    )
    filed = workload(
        SVRTextIndex(method=method, path=str(tmp_path / "idx"),
                     cache_pages=64, page_size=512, **options)
    )
    assert category_fingerprint(filed.env) == category_fingerprint(memory.env)
    filed.close()
    memory.close()


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------


def test_constructor_refuses_existing_index(rng, tmp_path):
    corpus = make_corpus(rng, num_docs=10, vocabulary=10, terms_per_doc=5)
    path = str(tmp_path / "idx")
    index = SVRTextIndex(method="id", path=path, cache_pages=64, page_size=512)
    _build(index, corpus)
    index.close()
    with pytest.raises(StorageError):
        SVRTextIndex(method="id", path=path)
    reopened = SVRTextIndex.open(path)
    assert reopened.document_count() == 10
    reopened.close()


def test_open_requires_index_blob(tmp_path):
    from repro.storage.environment import StorageEnvironment

    # a bare environment committed without the index facade
    with StorageEnvironment(cache_pages=8, path=str(tmp_path / "bare")) as env:
        env.create_kvstore("raw").put(1, 1)
    with pytest.raises(StorageError):
        SVRTextIndex.open(str(tmp_path / "bare"))


def test_file_backend_runner_cleanup(rng, tmp_path):
    import os

    from repro.bench.runner import BenchScale, ExperimentRunner, MethodSetup

    with ExperimentRunner(BenchScale.smoke(), backend="file") as runner:
        index, _seconds = runner.build_index(MethodSetup("id"))
        storage_dir = runner.storage_dir
        assert storage_dir is not None and os.path.isdir(storage_dir)
        assert index.durable and not index.env.closed
    # cleanup closed the index and removed the runner-owned directory
    assert index.env.closed
    assert runner.storage_dir is None
    assert not os.path.exists(storage_dir)


def test_env_and_path_are_exclusive(tmp_path):
    from repro.storage.environment import StorageEnvironment

    env = StorageEnvironment(cache_pages=8)
    with pytest.raises(StorageError):
        SVRTextIndex(method="id", env=env, path=str(tmp_path / "x"))
    env.close()
