"""Group-commit records carry only what their window changed.

* **O(window)** — a score-only window commits a record of the same few
  hundred bytes over a 200- and an 800-document corpus (a byte counter on
  ``WriteAheadLog.commit``, not a timer);
* **text-layer deltas survive crashes** — a lineage that mixes inserts,
  deletes, content updates and score windows crashes at every batch
  boundary and across a checkpoint, and every recovery equals the reference
  model's committed snapshot;
* **versions advance only once a record is durable** — a commit rolled back
  by ``CommitError`` leaves them behind, so its retry carries the documents;
* **whole records still fold** — a log whose records carry the whole
  catalog, as older writers wrote it, recovers to the same state.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.text_index import SVRTextIndex
from repro.errors import CommitError
from repro.storage.environment import StorageEnvironment, fold_catalog, merge_parts
from repro.storage.faults import DEFAULT_RETRY_BUDGET, FaultPlan, FaultSpec
from repro.storage.persistence import open_environment
from repro.storage.persistence.wal import WriteAheadLog
from repro.text.dictionary import TermDictionary
from repro.text.documents import Document, DocumentStore
from tests.conftest import METHOD_OPTIONS
from tests.core.test_state_machine import scripted_machine, scripted_window

CHUNK = {"chunk_ratio": 2.2, "min_chunk_size": 20}


def _durable_chunk_index(path: str, docs: int) -> SVRTextIndex:
    rng = random.Random(7)
    index = SVRTextIndex("chunk", path=path, page_size=512, cache_pages=256, **CHUNK)
    for doc_id in range(docs):
        index.add_document_terms(doc_id, [f"t{rng.randrange(400)}" for _ in range(20)],
                                 round(rng.uniform(1.0, 1000.0), 2))
    index.finalize()
    index.checkpoint()
    return index


def test_score_window_record_is_small_and_flat_in_the_corpus(tmp_path, monkeypatch):
    records: list[bytes] = []
    original = WriteAheadLog.commit

    def recording(self, batch_id, catalog):
        records.append(catalog)
        return original(self, batch_id, catalog)

    monkeypatch.setattr(WriteAheadLog, "commit", recording)
    rng = random.Random(3)
    window = [(rng.randrange(200), round(rng.uniform(1.0, 1000.0), 2))
              for _ in range(64)]
    sizes = {}
    for docs in (200, 800):
        index = _durable_chunk_index(str(tmp_path / f"corpus{docs}"), docs)
        records.clear()
        writes = index.env.disk.stats.writes
        index.apply_score_updates(window)
        index.commit()
        [record] = records
        sizes[docs] = len(record)
        # The disk part names only the pages this window wrote.
        assert 0 < len(pickle.loads(record)["disk"]["pages"]) <= (
            index.env.disk.stats.writes - writes)
        index.crash()
    assert all(size < 8 * 1024 for size in sizes.values()), sizes
    assert max(sizes.values()) <= 2 * min(sizes.values()), sizes


#: One batch per kind of write, so that no other write in the batch makes
#: the record carry a part that this kind alone must make it carry.
BATCHES = (
    lambda machine, rng: machine.insert(["v1", "v5"], 640.0),
    lambda machine, rng: machine.delete(2),
    lambda machine, rng: machine.update_content(3, ["v0", "v3", "v3", "v6"]),
    lambda machine, rng: machine.reinsert(0, False, ["v4", "v7"], True, 20),
    lambda machine, rng: machine.apply_score_updates(scripted_window(rng, 6)),
)


@pytest.mark.parametrize("method,shards", [(method, 1) for method in sorted(METHOD_OPTIONS)]
                         + [("chunk", 2), ("chunk_termscore", 4)])
def test_text_deltas_survive_a_crash_at_every_boundary(method, shards):
    """Each batch writes the text layer one way; the crash then finds a
    write of every kind in flight.  The lineage checkpoints once, midway."""
    rng = random.Random(17)
    with scripted_machine(method, shards=shards) as machine:
        machine.crash_and_recover()
        for boundary, batch in enumerate(BATCHES * 2):
            batch(machine, rng)
            machine.commit(checkpoint=boundary == len(BATCHES) - 1)
            machine.insert(["v2", "v6"], 999.0)
            machine.delete(0)
            machine.update_content(1, ["v7"])
            machine.apply_score_updates(scripted_window(rng, 3))
            machine.crash_and_recover()


def _fail_next_commit_on_shard_zero(index: SVRTextIndex) -> None:
    """Shard 0 carries the text layer; only its commit fails, past retrying,
    and the retry after the faults clear succeeds."""
    index.inject_faults(FaultPlan(shards=(0,), specs=(
        FaultSpec(op="wal_commit", kind="transient", at=0,
                  run=DEFAULT_RETRY_BUDGET + 1),)))
    with pytest.raises(CommitError):
        index.commit()
    index.clear_faults()
    index.commit()
    index.crash()


@pytest.mark.parametrize("shards", (1, 2))
def test_commit_retried_after_commit_error_carries_the_documents(tmp_path, shards):
    path = str(tmp_path / "index")
    index = SVRTextIndex("chunk", path=path, shards=shards, page_size=256,
                         cache_pages=64, **METHOD_OPTIONS["chunk"])
    for doc_id in range(20):
        index.add_document_terms(doc_id, ["alpha", f"t{doc_id % 3}"], float(doc_id + 1))
    index.finalize()
    index.commit()
    index.insert_document_terms(100, ["alpha", "fresh"], 500.0)
    _fail_next_commit_on_shard_zero(index)

    recovered = SVRTextIndex.open(path)
    assert recovered.current_score(100) == 500.0
    assert dict(recovered.documents.get(100).term_frequencies) == {"alpha": 1, "fresh": 1}
    assert recovered.dictionary.document_frequency("fresh") == 1
    assert [result.doc_id for result in recovered.search(["fresh"], k=5).results] == [100]
    recovered.close()


def test_commit_retried_after_commit_error_carries_the_long_lists(tmp_path):
    path = str(tmp_path / "index")
    index = SVRTextIndex("chunk", path=path, page_size=256, cache_pages=64,
                         **METHOD_OPTIONS["chunk"])
    for doc_id in range(30):
        index.add_document_terms(doc_id, ["alpha", f"t{doc_id % 4}"], float(doc_id + 1))
    index.commit()
    index.finalize()
    answers = [(r.doc_id, r.score) for r in index.search(["alpha"], k=40).results]
    _fail_next_commit_on_shard_zero(index)

    recovered = SVRTextIndex.open(path)
    assert [(r.doc_id, r.score) for r in recovered.search(["alpha"], k=40).results] == answers
    recovered.close()


@pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
def test_long_lists_written_after_a_commit_ride_the_next_record(tmp_path, method):
    """A commit before ``finalize`` makes the empty segment map durable; the
    build's lists and heap segments must then ride the next record."""
    path = str(tmp_path / "index")
    index = SVRTextIndex(method, path=path, page_size=256, cache_pages=64,
                         **METHOD_OPTIONS[method])
    for doc_id in range(30):
        index.add_document_terms(doc_id, ["alpha", f"t{doc_id % 4}"], float(doc_id + 1))
    index.commit()
    index.finalize()
    index.commit()
    answers = [(r.doc_id, r.score) for r in index.search(["alpha"], k=40).results]
    index.crash()

    recovered = SVRTextIndex.open(path)
    assert [(r.doc_id, r.score) for r in recovered.search(["alpha"], k=40).results] == answers
    recovered.close()


def test_a_freed_segment_stays_freed_after_recovery(tmp_path):
    path = str(tmp_path / "env")
    env = StorageEnvironment(cache_pages=8, page_size=128, path=path)
    heap = env.create_heapfile("h")
    kept = heap.write(b"k" * 300)
    dropped = heap.write(b"d" * 300)
    env.checkpoint()
    heap.delete(dropped)
    env.commit()
    pages = env.disk.page_count
    env.crash()

    recovered = open_environment(path)
    assert recovered.disk.page_count == pages
    assert not any(recovered.disk.contains(page_id) for page_id in dropped.page_ids)
    assert recovered.heapfile("h").segment_count == 1
    assert recovered.heapfile("h").read(kept) == b"k" * 300
    recovered.close()


def test_a_log_of_whole_records_recovers(tmp_path):
    """Older writers put the whole catalog — every store, the whole
    application blob and the whole disk state — into every record."""
    path = str(tmp_path / "index")
    index = SVRTextIndex("chunk", path=path, page_size=256, cache_pages=64,
                         **METHOD_OPTIONS["chunk"])
    env = index.env
    commit = env.disk.wal.commit

    def whole(batch_id, blob):
        record = pickle.loads(blob)
        record.update(env._commit_payload(env._app_state), disk=env.disk.disk_state())
        return commit(batch_id, pickle.dumps(record))

    env.disk.wal.commit = whole
    for doc_id in range(30):
        index.add_document_terms(doc_id, ["alpha", f"t{doc_id % 4}"], float(doc_id + 1))
    index.finalize()
    index.checkpoint()
    index.delete_document(3)
    index.update_content(4, "alpha omega")
    index.commit()
    index.apply_score_updates([(5, 999.0), (6, 0.5)])
    index.insert_document_terms(50, ["omega"], 70.0)
    index.commit()
    expected = {doc_id: index.current_score(doc_id) for doc_id in (*range(30), 50)}
    answers = [(r.doc_id, r.score) for r in index.search(["alpha"], k=40).results]
    index.crash()

    recovered = SVRTextIndex.open(path)
    assert {doc_id: recovered.current_score(doc_id) for doc_id in expected} == expected
    assert [(r.doc_id, r.score) for r in recovered.search(["alpha"], k=40).results] == answers
    assert sorted(r.doc_id for r in recovered.search(["omega"], k=5).results) == [4, 50]
    recovered.close()


def test_every_text_mutator_bumps_its_version():
    documents, dictionary = DocumentStore(), TermDictionary()
    for store, mutate in (
        (documents, lambda: documents.add_terms(1, ["a"])),
        (documents, lambda: documents.replace(Document.from_terms(1, ["b"]))),
        (documents, lambda: documents.remove(1)),
        (dictionary, lambda: dictionary.add_document_terms({"a"})),
        (dictionary, lambda: dictionary.remove_document_terms({"a"})),
    ):
        before = store.version
        mutate()
        assert store.version > before
    # The counter is not state: a recovered store starts from zero.
    assert pickle.loads(pickle.dumps(documents)).version == 0


def test_fold_keeps_what_a_record_does_not_carry():
    meta = {
        "stores": {"kv": {"a": {"root": 1}}, "heap": {"h": {"segments": {0: ((1,), 9)}}}},
        "app": {"kind": "k", "documents": "docs-v1",
                "index_state": {"_segments": "segments-v1", "update_stats": 1}},
        "batch": 4, "disk": {"bitmap": b""},
    }
    record = {
        "stores": {"kv": {"a": {"root": 2}}, "heap": {}},
        "app": {"kind": "k", "index_state": {"update_stats": 2}},
        "batch": 5, "disk": {"pages": {}},
    }
    folded = fold_catalog(meta, record)
    assert folded == {
        "stores": {"kv": {"a": {"root": 2}}, "heap": {"h": {"segments": {0: ((1,), 9)}}}},
        "app": {"kind": "k", "documents": "docs-v1",
                "index_state": {"_segments": "segments-v1", "update_stats": 2}},
        "batch": 5,
    }
    # Application states that are not dicts are always carried whole.
    assert merge_parts({"tag": 1}, "blob") == "blob"
    assert merge_parts("blob", {"tag": 1}) == {"tag": 1}
