"""Durability subsystem tests: file-backed disk, WAL, checkpoint, recovery.

The contract under test has two halves:

* **fidelity** — the file-backed disk is accounting-identical and
  page-byte-identical to the memory-backed disk for any operation sequence
  (the hypothesis property at the bottom);
* **durability** — a group commit survives a crash exactly, an uncommitted
  tail vanishes exactly, and a torn WAL tail is truncated back to the last
  intact commit.
"""

from __future__ import annotations

import os
import pickle
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import category_fingerprint, disk_page_bytes
from repro.errors import (
    CommitError,
    FormatVersionError,
    PageNotFoundError,
    StorageError,
    StoreClosedError,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import DEFAULT_RETRY_BUDGET, FaultPlan, FaultSpec
from repro.storage.environment import StorageEnvironment
from repro.storage.pager import Page
from repro.storage.persistence import (
    FileBackedDisk,
    PageBitmap,
    open_any_environment,
    open_environment,
    open_sharded_environment,
    replay,
)
from repro.storage.sharding import ShardedEnvironment


# ---------------------------------------------------------------------------
# PageBitmap
# ---------------------------------------------------------------------------


class TestPageBitmap:
    def test_set_clear_contains(self):
        bitmap = PageBitmap()
        for page_id in (0, 7, 8, 63, 200):
            bitmap.set(page_id)
        assert all(page_id in bitmap for page_id in (0, 7, 8, 63, 200))
        assert 1 not in bitmap and 199 not in bitmap
        bitmap.clear(8)
        assert 8 not in bitmap
        bitmap.clear(10_000)  # clearing past the end is a no-op
        assert bitmap.live_ids() == [0, 7, 63, 200]

    def test_round_trip(self):
        bitmap = PageBitmap()
        for page_id in range(0, 300, 7):
            bitmap.set(page_id)
        restored = PageBitmap.from_bytes(bitmap.to_bytes())
        assert restored.live_ids() == bitmap.live_ids()


# ---------------------------------------------------------------------------
# FileBackedDisk: page API + accounting fidelity
# ---------------------------------------------------------------------------


def _scripted_ops(disk):
    """A deterministic op mix covering allocate/write/read/peek/free."""
    ids = disk.allocate_many(6)
    for index, page_id in enumerate(ids):
        page = disk.read(page_id)
        page.write(bytes([index]) * (index * 40 + 1))
        disk.write(page)
    for page_id in ids:          # sequential scan
        disk.read(page_id)
    disk.read(ids[3])            # random
    disk.peek(ids[0])            # accounting-free
    disk.free(ids[2])
    extra = disk.allocate()
    page = disk.read(extra)
    page.write(b"tail")
    disk.write(page)
    return ids, extra


class TestFileBackedDisk:
    def test_matches_simulated_disk_exactly(self, tmp_path):
        memory = SimulatedDisk(page_size=256)
        filed = FileBackedDisk(str(tmp_path / "disk"), page_size=256)
        _scripted_ops(memory)
        _scripted_ops(filed)
        assert filed.stats == memory.stats
        assert filed.page_count == memory.page_count
        assert filed.used_bytes() == memory.used_bytes()
        for page_id in range(memory._next_page_id):
            assert filed.contains(page_id) == memory.contains(page_id)
            if memory.contains(page_id):
                assert filed.peek(page_id).data == memory.peek(page_id).data
        filed.close()

    def test_missing_page_raises(self, tmp_path):
        disk = FileBackedDisk(str(tmp_path / "disk"))
        with pytest.raises(PageNotFoundError):
            disk.read(0)
        page_id = disk.allocate()
        disk.free(page_id)
        with pytest.raises(PageNotFoundError):
            disk.peek(page_id)
        with pytest.raises(PageNotFoundError):
            disk.write(Page(page_id=page_id, capacity=disk.page_size))
        disk.close()

    def test_commit_checkpoint_recover(self, tmp_path):
        path = str(tmp_path / "disk")
        disk = FileBackedDisk(path, page_size=128)
        ids = disk.allocate_many(3)
        for page_id in ids:
            page = disk.read(page_id)
            page.write(f"page-{page_id}".encode())
            disk.write(page)
        disk.commit_batch({"app": None})
        disk.checkpoint({"app": None})
        # committed-but-not-checkpointed batch
        page = disk.read(ids[1])
        page.write(b"committed-v2")
        disk.write(page)
        disk.commit_batch({"app": None})
        # uncommitted tail: lost on crash
        page = disk.read(ids[0])
        page.write(b"uncommitted")
        disk.write(page)
        disk.close()

        recovered, catalog = FileBackedDisk.open(path)
        assert recovered.peek(ids[0]).data == b"page-0"
        assert recovered.peek(ids[1]).data == b"committed-v2"
        assert recovered.peek(ids[2]).data == b"page-2"
        assert recovered.page_count == 3
        assert catalog["batch"] == recovered.committed_batches
        recovered.close()

    def test_spill_keeps_reads_correct(self, tmp_path):
        """Page images spilled to the WAL file read back transparently."""
        disk = FileBackedDisk(str(tmp_path / "disk"), page_size=128,
                              wal_buffer_bytes=64)
        ids = disk.allocate_many(8)
        for page_id in ids:
            page = disk.read(page_id)
            page.write(bytes([page_id % 251]) * 100)
            disk.write(page)
        assert disk.pending_wal_pages() == 8
        for page_id in ids:
            assert disk.peek(page_id).data == bytes([page_id % 251]) * 100
        disk.commit_batch({})
        assert disk.pending_wal_pages() == 0
        assert disk.overlay_pages() == 8
        disk.close()

    def test_constructor_refuses_existing_disk(self, tmp_path):
        path = str(tmp_path / "disk")
        disk = FileBackedDisk(path)
        disk.checkpoint({})
        disk.close()
        with pytest.raises(StorageError):
            FileBackedDisk(path)

    def test_open_refuses_empty_dir(self, tmp_path):
        with pytest.raises(StorageError):
            FileBackedDisk.open(str(tmp_path / "nothing"))

    def test_closed_disk_raises(self, tmp_path):
        disk = FileBackedDisk(str(tmp_path / "disk"))
        disk.allocate()
        disk.close()
        disk.close()  # idempotent
        with pytest.raises(StoreClosedError):
            disk.allocate()


# ---------------------------------------------------------------------------
# WAL torn-tail handling
# ---------------------------------------------------------------------------


class TestWalReplay:
    def test_torn_tail_truncates_to_last_commit(self, tmp_path):
        path = str(tmp_path / "disk")
        disk = FileBackedDisk(path, page_size=128)
        page_id = disk.allocate()
        page = disk.read(page_id)
        page.write(b"first")
        disk.write(page)
        disk.commit_batch({"app": "checkpointed"})
        disk.checkpoint({"app": "checkpointed"})
        page = disk.read(page_id)
        page.write(b"second")
        disk.write(page)
        disk.commit_batch({"app": "committed"})
        wal_path = os.path.join(path, "wal.log")
        disk.close()

        # Tear the log: chop bytes off the tail, corrupting the last record.
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as handle:
            handle.truncate(size - 3)
        result = replay(wal_path)
        assert result.catalog is None  # the only commit record is torn
        recovered, catalog = FileBackedDisk.open(path)
        assert recovered.peek(page_id).data == b"first"
        assert catalog["app"] == "checkpointed"
        # the torn tail was truncated away
        assert os.path.getsize(wal_path) == 0
        recovered.close()

    def test_replay_stops_at_corrupt_crc(self, tmp_path):
        path = str(tmp_path / "disk")
        disk = FileBackedDisk(path, page_size=128)
        disk.checkpoint({})  # anchor meta.pkl, as the environment does
        page_id = disk.allocate()
        for round_no in range(2):
            page = disk.read(page_id)
            page.write(f"round-{round_no}".encode())
            disk.write(page)
            disk.commit_batch({"round": round_no})
        wal_path = os.path.join(path, "wal.log")
        disk.close()
        # Flip a byte inside the *second* batch's payload region.
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as handle:
            handle.seek(size - 10)
            byte = handle.read(1)
            handle.seek(size - 10)
            handle.write(bytes([byte[0] ^ 0xFF]))
        recovered, catalog = FileBackedDisk.open(path)
        assert recovered.peek(page_id).data == b"round-0"
        assert catalog["round"] == 0
        recovered.close()

    # -- raw-frame edge cases ------------------------------------------------
    # A power cut can land the tear at any byte offset; these pin the three
    # boundary positions the sequential scan must each treat as "tail ends
    # here": inside a record's CRC trailer, inside the next record's header,
    # and inside a COMMIT whose WRITE prefix must then be discarded whole.

    @staticmethod
    def _write_frame(page_id: int, payload: bytes) -> bytes:
        from repro.storage.persistence.wal import _CRC, _WRITE, _WRITE_HEADER
        header = _WRITE_HEADER.pack(_WRITE, page_id, len(payload))
        crc = zlib.crc32(payload, zlib.crc32(header))
        return header + payload + _CRC.pack(crc)

    @staticmethod
    def _commit_frame(batch_id: int, catalog: bytes) -> bytes:
        from repro.storage.persistence.wal import _COMMIT, _COMMIT_HEADER, _CRC
        header = _COMMIT_HEADER.pack(_COMMIT, batch_id, len(catalog))
        crc = zlib.crc32(catalog, zlib.crc32(header))
        return header + catalog + _CRC.pack(crc)

    def test_truncation_inside_crc_trailer_drops_the_record(self, tmp_path):
        wal_path = str(tmp_path / "wal.log")
        first = self._write_frame(0, b"alpha") + self._commit_frame(1, b"c1")
        second = self._write_frame(1, b"beta") + self._commit_frame(2, b"c2")
        with open(wal_path, "wb") as handle:
            # Cut 2 bytes into the second commit's 4-byte CRC trailer: the
            # header and catalog are fully present, only the trailer is short.
            handle.write(first + second[:-2])
        result = replay(wal_path)
        assert result.batch_id == 1
        assert result.catalog == b"c1"
        assert result.valid_bytes == len(first)
        assert list(result.pages) == [0]

    def test_valid_record_then_partial_header_ends_the_scan(self, tmp_path):
        wal_path = str(tmp_path / "wal.log")
        first = self._write_frame(0, b"alpha") + self._commit_frame(1, b"c1")
        torn_header = self._write_frame(7, b"gamma")[:5]  # header is 13 bytes
        with open(wal_path, "wb") as handle:
            handle.write(first + torn_header)
        result = replay(wal_path)
        assert result.batch_id == 1
        assert result.valid_bytes == len(first)
        # Recovery truncates the partial header away entirely.
        disk_path = str(tmp_path / "d")
        disk = FileBackedDisk(disk_path, page_size=128)
        disk.checkpoint({})
        page_id = disk.allocate()
        page = disk.read(page_id)
        page.write(b"kept")
        disk.write(page)
        disk.commit_batch({"app": "kept"})
        disk.close()
        wal_file = os.path.join(disk_path, "wal.log")
        committed_bytes = os.path.getsize(wal_file)
        with open(wal_file, "ab") as handle:
            handle.write(torn_header)
        recovered, catalog = FileBackedDisk.open(disk_path)
        assert recovered.wal.size_bytes() == committed_bytes
        assert catalog["app"] == "kept"
        assert recovered.peek(page_id).data == b"kept"
        recovered.close()

    def test_corrupted_commit_discards_its_write_prefix(self, tmp_path):
        wal_path = str(tmp_path / "wal.log")
        first = self._write_frame(0, b"alpha") + self._commit_frame(1, b"c1")
        writes = self._write_frame(1, b"beta") + self._write_frame(2, b"delta")
        commit = bytearray(self._commit_frame(2, b"c2"))
        commit[-6] ^= 0xFF  # corrupt the catalog, so the CRC check fails
        with open(wal_path, "wb") as handle:
            handle.write(first + writes + bytes(commit))
        result = replay(wal_path)
        # The batch's WRITE records were intact, but without a valid COMMIT
        # they never existed: pages 1 and 2 must not appear in the result.
        assert result.batch_id == 1
        assert result.catalog == b"c1"
        assert sorted(result.pages) == [0]
        assert result.valid_bytes == len(first)


# ---------------------------------------------------------------------------
# Environment-level durability
# ---------------------------------------------------------------------------


def _populate(env):
    kv = env.create_kvstore("t.kv")
    heap = env.create_heapfile("t.heap")
    for index in range(200):
        kv.put((f"term{index % 20:03d}", index), index * 1.5)
    handle = heap.write(b"segment" * 300)
    for index in range(0, 200, 9):
        kv.delete((f"term{index % 20:03d}", index))
    return kv, heap, handle


class TestEnvironmentDurability:
    def test_checkpoint_close_reopen(self, tmp_path):
        path = str(tmp_path / "env")
        env = StorageEnvironment(cache_pages=16, page_size=256, path=path)
        kv, heap, handle = _populate(env)
        expected = dict(kv.items())
        env.close()
        env.close()  # idempotent
        assert env.closed

        recovered = open_environment(path)
        assert recovered.recovered
        assert recovered.store_names() == ["t.heap", "t.kv"]
        assert dict(recovered.kvstore("t.kv").items()) == expected
        restored_heap = recovered.heapfile("t.heap")
        assert restored_heap.read(restored_heap.get(0)) == b"segment" * 300
        recovered.close()

    def test_crash_recovers_committed_prefix_only(self, tmp_path):
        path = str(tmp_path / "env")
        env = StorageEnvironment(cache_pages=16, page_size=256, path=path)
        kv, _heap, _handle = _populate(env)
        committed = dict(kv.items())
        batch = env.commit(app_state={"tag": "batch-1"})
        assert batch >= 1
        kv.put(("zzz", 0), "never-committed")
        env.crash()

        recovered = open_environment(path)
        assert dict(recovered.kvstore("t.kv").items()) == committed
        assert recovered.recovered_app_state == {"tag": "batch-1"}
        recovered.close()

    def test_operations_after_close_raise(self, tmp_path):
        env = StorageEnvironment(cache_pages=8, path=str(tmp_path / "env"))
        kv = env.create_kvstore("t.kv")
        env.close()
        with pytest.raises(StoreClosedError):
            env.create_kvstore("other")
        with pytest.raises(StoreClosedError):
            kv.put(1, 1)
        with pytest.raises(StoreClosedError):
            env.commit()

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "env")
        with StorageEnvironment(cache_pages=8, path=path) as env:
            env.create_kvstore("t.kv").put(1, "one")
        assert env.closed
        recovered = open_environment(path)
        assert recovered.kvstore("t.kv").get(1) == "one"
        recovered.close()

    def test_context_manager_crashes_on_exception(self, tmp_path):
        path = str(tmp_path / "env")
        env = StorageEnvironment(cache_pages=8, path=path)
        env.create_kvstore("t.kv").put(1, "committed")
        env.commit()
        with pytest.raises(RuntimeError):
            with env:
                env.kvstore("t.kv").put(2, "doomed")
                raise RuntimeError("boom")
        assert env.closed
        recovered = open_environment(path)
        assert recovered.kvstore("t.kv").get(2, default=None) is None
        assert recovered.kvstore("t.kv").get(1) == "committed"
        recovered.close()

    def test_memory_environment_close_and_commit_are_safe(self):
        env = StorageEnvironment(cache_pages=8)
        env.create_kvstore("t.kv").put(1, 1)
        assert env.commit() == 0
        assert env.checkpoint() == 0
        env.close()
        assert env.closed

    def test_wal_bounded_by_checkpoint(self, tmp_path):
        path = str(tmp_path / "env")
        env = StorageEnvironment(cache_pages=8, page_size=256, path=path)
        kv = env.create_kvstore("t.kv")
        for index in range(100):
            kv.put(index, bytes(50))
        env.commit()
        assert env.disk.wal.size_bytes() > 0
        env.checkpoint()
        assert env.disk.wal.size_bytes() == 0
        env.close()


# ---------------------------------------------------------------------------
# Sharded environment durability
# ---------------------------------------------------------------------------


class TestShardedDurability:
    def test_round_trip_with_registry(self, tmp_path):
        path = str(tmp_path / "sharded")
        env = ShardedEnvironment(shard_count=3, cache_pages=48,
                                 page_size=256, path=path)
        kv = env.create_kvstore("x.kv", key_shard="term")
        doc_kv = env.create_kvstore("x.doc", key_shard="doc")
        heap = env.create_heapfile("x.heap", key_shard="term")
        for index in range(120):
            kv.put((f"w{index % 15:02d}", index), index)
            doc_kv.put(index, float(index))
        handle = heap.write(b"longlist" * 100, key="w05")
        env.commit(app_state="sharded-blob")
        kv.put(("lost", 0), "lost")
        env.crash()

        recovered = open_sharded_environment(path)
        assert recovered.shard_count == 3
        assert recovered.recovered_app_state == "sharded-blob"
        rkv = recovered.kvstore("x.kv")
        assert rkv.get(("lost", 0), default=None) is None
        assert dict(rkv.items()) == {(f"w{i % 15:02d}", i): i for i in range(120)}
        assert dict(recovered.kvstore("x.doc").items()) == {
            i: float(i) for i in range(120)
        }
        rheap = recovered.heapfile("x.heap")
        assert rheap.shard_count == 3
        part = rheap.shard_heap(handle.shard)
        assert part.read(part.get(0)) == b"longlist" * 100
        # routing must be preserved exactly
        assert recovered.shard_of_term("w05") == handle.shard
        recovered.close()

    def test_torn_commit_fanout_rolls_back_to_commit_point(self, tmp_path):
        """A crash inside the commit fan-out leaves shards one batch apart;
        recovery rolls the overshooting shard back to the commit point
        (shard 0's batch) instead of mixing two batch states — the extra
        commit is still in that shard's WAL, so it is a clean prefix cut."""
        path = str(tmp_path / "torn")
        env = ShardedEnvironment(shard_count=2, cache_pages=16,
                                 page_size=256, path=path)
        kv = env.create_kvstore("x.kv", key_shard="term")
        kv.put(("a", 1), 1)
        env.commit()
        # Simulate a crash between shard 1's commit and shard 0's: commit
        # only the non-commit-point shard.
        kv.put(("b", 2), 2)
        shard_of_b = env.shard_of_term("b")
        assert shard_of_b == 1, "test assumes 'b' routes to shard 1"
        env.shards[1].commit()
        env.crash()

        recovered = open_sharded_environment(path)
        assert (recovered.shards[1].committed_batches
                == recovered.shards[0].committed_batches)
        rkv = recovered.kvstore("x.kv")
        assert rkv.get(("a", 1)) == 1
        assert rkv.get(("b", 2), default=None) is None
        recovered.close()

    def test_retried_fanout_keeps_every_shard_at_the_commit_point(self, tmp_path):
        """A fan-out whose commit point (shard 0) fails after shard 1 has
        committed is retried under the same batch id: shard 1 must not stay
        a batch ahead, or the next crash would cut its last acknowledged
        window back to shard 0's id."""
        path = str(tmp_path / "skew")
        env = ShardedEnvironment(shard_count=2, cache_pages=32,
                                 page_size=256, path=path)
        scores = env.create_kvstore("x.score", key_shard="doc")
        model = {doc_id: float(doc_id) for doc_id in range(20)}
        scores.put_many(model.items())
        env.commit()
        assert {scores.shard_of(doc_id) for doc_id in model} == {0, 1}
        env.inject_faults(FaultPlan(
            specs=(FaultSpec("wal_commit", "transient", at=0,
                             run=DEFAULT_RETRY_BUDGET + 1),),
            shards=(0,)))
        window = {doc_id: 100.0 + doc_id for doc_id in model}
        scores.put_many(window.items())
        with pytest.raises(CommitError):
            env.commit()
        env.clear_faults()
        env.commit()  # the retry: acknowledged
        model.update(window)
        window = {doc_id: 200.0 + doc_id for doc_id in model}
        scores.put_many(window.items())
        env.commit()  # one more acknowledged window
        model.update(window)
        batches = [shard.committed_batches for shard in env.shards]
        assert batches[0] == batches[1]
        env.crash()

        recovered = open_sharded_environment(path)
        assert dict(recovered.kvstore("x.score").items()) == model
        recovered.close()

    def test_directories_of_another_format_are_refused(self, tmp_path):
        """A directory whose catalog predates the byte-run node layout
        (no version: format 1, pickled nodes) is refused with both versions
        named, instead of its pages being misread."""
        from repro.storage.btree import FORMAT_VERSION

        plain = str(tmp_path / "plain")
        with StorageEnvironment(cache_pages=8, path=plain) as env:
            env.create_kvstore("a").put(1, 1)
        sharded = str(tmp_path / "sharded")
        with ShardedEnvironment(shard_count=2, cache_pages=8, path=sharded) as env:
            env.create_kvstore("b").put(("t", 1), 1)
        for catalog_path in (os.path.join(plain, "meta.pkl"),
                             os.path.join(sharded, "sharded.pkl")):
            with open(catalog_path, "rb") as handle:
                catalog = pickle.load(handle)
            assert catalog.pop("format") == FORMAT_VERSION
            with open(catalog_path, "wb") as handle:
                pickle.dump(catalog, handle)
        for path, opener in ((plain, open_environment),
                             (sharded, open_sharded_environment)):
            with pytest.raises(FormatVersionError) as raised:
                opener(path)
            message = str(raised.value)
            assert "format 1" in message and f"format {FORMAT_VERSION}" in message

    def test_open_any_environment_dispatches(self, tmp_path):
        plain_path = str(tmp_path / "plain")
        sharded_path = str(tmp_path / "sharded")
        with StorageEnvironment(cache_pages=8, path=plain_path) as env:
            env.create_kvstore("a").put(1, 1)
        with ShardedEnvironment(shard_count=2, cache_pages=8,
                                path=sharded_path) as env:
            env.create_kvstore("b").put(("t", 1), 1)
        plain = open_any_environment(plain_path)
        sharded = open_any_environment(sharded_path)
        assert isinstance(plain, StorageEnvironment)
        assert isinstance(sharded, ShardedEnvironment)
        plain.close()
        sharded.close()
        with pytest.raises(StorageError):
            open_any_environment(str(tmp_path / "missing"))


# ---------------------------------------------------------------------------
# Hypothesis: backend fidelity over arbitrary operation sequences
# ---------------------------------------------------------------------------


_KEYS = st.integers(min_value=0, max_value=30)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("delete"), _KEYS, st.just(0)),
        st.tuples(st.just("get"), _KEYS, st.just(0)),
        st.tuples(st.just("scan"), st.just(0), st.just(0)),
        st.tuples(st.just("heap"), st.just(0),
                  st.integers(min_value=0, max_value=2000)),
        st.tuples(st.just("drop"), st.just(0), st.just(0)),
        st.tuples(st.just("flush"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


def _run_ops(env, ops):
    kv = env.create_kvstore("p.kv")
    heap = env.create_heapfile("p.heap")
    for op, key, value in ops:
        if op == "put":
            kv.put((f"k{key:02d}", key), value)
        elif op == "delete":
            kv.delete_if_present((f"k{key:02d}", key))
        elif op == "get":
            kv.get((f"k{key:02d}", key), default=None)
        elif op == "scan":
            list(kv.items())
        elif op == "heap":
            handle = heap.write(b"h" * value)
            heap.read(handle)
        elif op == "drop":
            env.drop_cache()
        elif op == "flush":
            env.pool.flush()


class TestBackendFidelityProperty:
    @settings(max_examples=40, deadline=None)
    @given(ops=_OPS)
    def test_memory_and_file_fingerprints_identical(self, ops, tmp_path_factory):
        """The satellite round-trip property: same ops, same counters, same bytes."""
        memory = StorageEnvironment(cache_pages=8, page_size=256)
        filed = StorageEnvironment(
            cache_pages=8, page_size=256,
            path=str(tmp_path_factory.mktemp("fidelity") / "env"),
        )
        _run_ops(memory, ops)
        _run_ops(filed, ops)
        assert category_fingerprint(filed) == category_fingerprint(memory)
        assert disk_page_bytes(filed) == disk_page_bytes(memory)
        # And the file backend must reproduce those bytes after recovery.
        filed.commit()
        path = filed.path
        filed.crash()
        recovered = open_environment(path)
        assert dict(recovered.kvstore("p.kv").items()) == dict(
            memory.kvstore("p.kv").items()
        )
        recovered.close()
        filed_dir = path
        del filed_dir

    @settings(max_examples=15, deadline=None)
    @given(ops=_OPS, boundary=st.integers(min_value=0, max_value=59))
    def test_commit_boundary_recovery(self, ops, boundary, tmp_path_factory):
        """Committing after ``boundary`` ops and crashing recovers exactly them."""
        boundary = min(boundary, len(ops))
        reference = StorageEnvironment(cache_pages=8, page_size=256)
        _run_ops(reference, ops[:boundary])

        durable = StorageEnvironment(
            cache_pages=8, page_size=256,
            path=str(tmp_path_factory.mktemp("boundary") / "env"),
        )
        kv = durable.create_kvstore("p.kv")
        heap = durable.create_heapfile("p.heap")
        del kv, heap
        _replay_split(durable, ops, boundary)
        path = durable.path
        durable.crash()
        recovered = open_environment(path)
        assert dict(recovered.kvstore("p.kv").items()) == dict(
            reference.kvstore("p.kv").items()
        )
        recovered.close()


def _replay_split(env, ops, boundary):
    """Apply ``ops`` with a commit after the first ``boundary`` of them."""
    kv = env.kvstore("p.kv")
    heap = env.heapfile("p.heap")
    for position, (op, key, value) in enumerate(ops):
        if position == boundary:
            env.commit()
        if op == "put":
            kv.put((f"k{key:02d}", key), value)
        elif op == "delete":
            kv.delete_if_present((f"k{key:02d}", key))
        elif op == "get":
            kv.get((f"k{key:02d}", key), default=None)
        elif op == "scan":
            list(kv.items())
        elif op == "heap":
            handle = heap.write(b"h" * value)
            heap.read(handle)
        elif op == "drop":
            env.drop_cache()
        elif op == "flush":
            env.pool.flush()
    if boundary >= len(ops):
        env.commit()


# ---------------------------------------------------------------------------
# Catalog serialisation sanity
# ---------------------------------------------------------------------------


def test_commit_record_catalog_is_picklable_and_versioned(tmp_path):
    path = str(tmp_path / "env")
    env = StorageEnvironment(cache_pages=8, page_size=256, path=path)
    env.create_kvstore("t.kv").put(1, "x")
    env.commit(app_state={"n": 1})
    catalog = env._commit_payload(env._app_state)
    blob = pickle.dumps(catalog)
    assert pickle.loads(blob)["app"] == {"n": 1}
    assert "t.kv" in catalog["stores"]["kv"]
    env.close()


# ---------------------------------------------------------------------------
# Blocked posting payloads: bitrot, torn tails, checkpoint recovery
# ---------------------------------------------------------------------------


class TestBlockedPayloadIntegrity:
    """Silent corruption below the page layer must surface as ChecksumError.

    Every long-list page carries its own CRC; a flipped byte or a torn
    (zero-filled) tail in a long-list page must raise a typed error during
    the scan — on the memory and the file backend alike — and intact
    payloads must survive checkpoint/recovery bytewise.
    """

    def _build_index(self, env):
        from repro.core.indexes.registry import create_index
        from repro.text.documents import DocumentStore
        import random as random_module

        rng = random_module.Random(7)
        index = create_index("id", env, DocumentStore())
        # Widely spaced doc ids keep the deltas multi-byte, so the list
        # spans several 256-byte pages.
        for doc_id in range(600):
            index.add_document(doc_id * 9973, rng.uniform(1.0, 500.0),
                               terms=["alpha", f"x{doc_id % 7}"])
        index.finalize()
        return index

    def _corrupt_page(self, env, page_id, tear=False):
        page = env.disk.peek(page_id)
        data = bytearray(page.data)
        if tear:
            keep = len(data) // 2
            data[keep:] = bytes(len(data) - keep)
        else:
            data[len(data) // 2] ^= 0x41
        page.write(bytes(data))
        env.disk.write(page)

    def _env(self, tmp_path, backend):
        path = str(tmp_path / "env") if backend == "file" else None
        return StorageEnvironment(cache_pages=16, page_size=256, path=path)

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_bitrot_surfaces_as_checksum_error(self, backend, tmp_path):
        from repro.errors import ChecksumError

        env = self._env(tmp_path, backend)
        index = self._build_index(env)
        handle = index._segments["alpha"]
        assert len(handle.page_ids) > 1  # the list must span pages
        index.drop_long_list_cache()  # flush, then force reads from disk
        self._corrupt_page(env, handle.page_ids[-1])
        with pytest.raises(ChecksumError):
            index.query(["alpha"], k=300)

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_torn_tail_surfaces_as_checksum_error(self, backend, tmp_path):
        from repro.errors import ChecksumError

        env = self._env(tmp_path, backend)
        index = self._build_index(env)
        handle = index._segments["alpha"]
        index.drop_long_list_cache()
        self._corrupt_page(env, handle.page_ids[-1], tear=True)
        with pytest.raises(ChecksumError):
            index.query(["alpha"], k=300)

    def test_blocked_payloads_survive_checkpoint_recovery(self, tmp_path):
        from repro.core.posting import iter_blocked_id_postings_lazy
        from tests.helpers import id_postings

        path = str(tmp_path / "env")
        env = StorageEnvironment(cache_pages=16, page_size=256, path=path)
        index = self._build_index(env)
        handle = index._segments["alpha"]
        heap_name = index._long_lists.name
        original = index._long_lists.read(handle)
        expected = id_postings(
            iter_blocked_id_postings_lazy(index._long_lists.iter_pages(handle)))
        assert len(expected) == 600
        env.close()

        recovered = open_environment(path)
        heap = recovered.heapfile(heap_name)
        restored = heap.read(heap.get(handle.segment_id))
        assert restored == original
        assert id_postings(iter_blocked_id_postings_lazy(
            heap.iter_pages(heap.get(handle.segment_id)))) == expected
        recovered.close()
