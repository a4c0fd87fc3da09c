"""Fault-injection framework tests: plans, retries, hardened consumers.

Three layers under test:

* **the injector itself** — decisions are a pure function of
  ``(op, count, seed)``, background runs respect ``max_run``, explicit specs
  escalate past the retry budget, and every escalated error carries its
  failure domain (shard tag);
* **hardened storage consumers** — transient faults retry to success with no
  state change, torn WAL appends are rolled back and retried, a failed commit
  rolls back to the last committed state and stays retryable, a checkpoint
  survives transient meta/data faults and leaves a recoverable directory when
  it fails hard;
* **data-at-rest integrity** — per-page checksums turn injected (and real)
  bit-rot into a typed :class:`ChecksumError`, and :meth:`scrub` enumerates
  on-disk rot without raising.
"""

from __future__ import annotations

import os
import zlib

import pytest

from repro.errors import (
    ChecksumError,
    CommitError,
    DiskFullError,
    RetryExhaustedError,
    StorageError,
    TransientIOError,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.environment import StorageEnvironment
from repro.storage.faults import (
    DEFAULT_RETRY_BUDGET,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultStats,
    merged_fault_stats,
    run_with_retries,
)
from repro.storage.pager import Page
from repro.storage.persistence import FileBackedDisk, open_environment, replay


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_fault_at_is_pure_and_seeded(self):
        plan = FaultPlan(seed=42, rate=0.5)
        first = [plan.fault_at("read", count, 0) for count in range(200)]
        second = [plan.fault_at("read", count, 0) for count in range(200)]
        assert first == second
        assert any(kind is not None for kind in first)
        other = FaultPlan(seed=43, rate=0.5)
        assert first != [other.fault_at("read", count, 0) for count in range(200)]

    def test_spec_overrides_background(self):
        plan = FaultPlan(specs=(FaultSpec(op="write", kind="enospc", at=3),))
        assert plan.fault_at("write", 3, 0) == "enospc"
        assert plan.fault_at("write", 2, 0) is None
        assert plan.fault_at("write", 4, 0) is None
        assert plan.fault_at("read", 3, 0) is None

    def test_spec_validation(self):
        with pytest.raises(StorageError, match="unknown fault op"):
            FaultSpec(op="nope", kind="transient", at=0)
        with pytest.raises(StorageError, match="unknown fault kind"):
            FaultSpec(op="read", kind="gamma-ray", at=0)
        with pytest.raises(StorageError, match="at >= 0"):
            FaultSpec(op="read", kind="transient", at=-1)

    def test_max_run_bounds_background_noise(self):
        plan = FaultPlan(seed=1, rate=1.0, ops=("read",), max_run=2)
        injector = FaultInjector(plan)
        run = longest = 0
        for _ in range(100):
            kind = injector.roll("read")
            run = run + 1 if kind is not None else 0
            longest = max(longest, run)
        assert 0 < longest <= 2

    def test_for_shard_derives_and_filters(self):
        plan = FaultPlan(seed=5, rate=0.3, shards=(1,))
        assert not plan.for_shard(0).enabled
        derived = plan.for_shard(1)
        assert derived.enabled and derived.seed != plan.seed
        # The derivation is itself deterministic.
        assert plan.for_shard(1).seed == derived.seed

    def test_chaos_profiles_are_deterministic_and_backend_matched(self):
        a = FaultPlan.chaos(7, backend="file", escalations=3)
        b = FaultPlan.chaos(7, backend="file", escalations=3)
        assert a == b
        memory = FaultPlan.chaos(7, backend="memory", escalations=3)
        # Memory has no recovery path: every scheduled run must stay inside
        # the retry budget so faults always retry back to success.
        for spec in memory.specs:
            assert spec.run + memory.max_run <= memory.retry_budget
        assert memory.ops == ("read", "write")

    def test_memory_escalations_never_chain_past_the_budget(self):
        # Seed 2535 once put two write runs back to back (occurrences 18-21):
        # four consecutive failures exhaust the budget, which memory cannot
        # recover from.
        for seed in (2535, *range(200)):
            plan = FaultPlan.chaos(seed, backend="memory", escalations=3)
            for first in plan.specs:
                for second in plan.specs:
                    if first is not second and first.op == second.op:
                        assert (second.at >= first.at + first.run + plan.max_run
                                or first.at >= second.at + second.run + plan.max_run)

    def test_none_plan_is_disabled(self):
        assert not FaultPlan.none().enabled
        assert FaultPlan(seed=3, rate=0.0).enabled is False
        assert FaultPlan(seed=None, rate=0.9).enabled is False


class TestRetries:
    def test_retries_to_success_within_budget(self):
        injector = FaultInjector(FaultPlan(retry_budget=4))
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            if calls["n"] <= 3:
                raise TransientIOError("flaky")
            return "ok"

        assert run_with_retries(injector, "read", attempt) == "ok"
        assert injector.stats.retries == 3
        assert injector.stats.escalations == 0

    def test_escalates_past_budget_with_shard_tag(self):
        injector = FaultInjector(FaultPlan(retry_budget=2), shard=3)

        def attempt():
            raise TransientIOError("always")

        with pytest.raises(RetryExhaustedError) as excinfo:
            run_with_retries(injector, "write", attempt)
        assert excinfo.value.shard == 3
        assert injector.stats.escalations == 1

    def test_reset_runs_before_each_retry(self):
        injector = FaultInjector(FaultPlan(retry_budget=3))
        resets = []
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise TransientIOError("flaky")
            return calls["n"]

        assert run_with_retries(injector, "read", attempt,
                                reset=lambda: resets.append(calls["n"])) == 3
        assert resets == [1, 2]

    def test_none_injector_is_pass_through(self):
        assert run_with_retries(None, "read", lambda: 99) == 99

    def test_fault_point_tags_enospc(self):
        plan = FaultPlan(specs=(FaultSpec(op="allocate", kind="enospc", at=0),))
        injector = FaultInjector(plan, shard=1)
        with pytest.raises(DiskFullError) as excinfo:
            injector.fault_point("allocate")
        assert excinfo.value.shard == 1

    def test_merged_fault_stats(self):
        a = FaultStats(injected={"transient": 2}, retries=2, escalations=0)
        b = FaultStats(injected={"transient": 1, "torn": 3}, retries=4,
                       escalations=1)
        merged = merged_fault_stats([a, b])
        assert merged.injected == {"transient": 3, "torn": 3}
        assert merged.retries == 6 and merged.escalations == 1
        assert merged.total_injected == 6


# ---------------------------------------------------------------------------
# Hardened consumers: SimulatedDisk, WAL, commit, checkpoint
# ---------------------------------------------------------------------------


def _page(page_id: int, payload: bytes, size: int = 256) -> Page:
    return Page(page_id=page_id, capacity=size, data=payload)


class TestDiskInjection:
    def test_transient_read_retries_to_success(self):
        disk = SimulatedDisk(page_size=256)
        page_id = disk.allocate()
        disk.write(_page(page_id, b"payload"))
        disk.fault_injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(op="read", kind="transient", at=0,
                                       run=2),))
        )
        assert disk.read(page_id).data == b"payload"
        assert disk.fault_injector.stats.retries == 2

    def test_read_escalation_is_typed_and_tagged(self):
        disk = SimulatedDisk(page_size=256)
        page_id = disk.allocate()
        disk.write(_page(page_id, b"payload"))
        disk.fault_injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(op="read", kind="transient", at=0,
                                       run=DEFAULT_RETRY_BUDGET + 2),)),
            shard=2,
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            disk.read(page_id)
        assert excinfo.value.shard == 2
        # The page itself is untouched once the schedule moves past.
        assert disk.read(page_id).data == b"payload"


class TestWalInjection:
    @staticmethod
    def _attach(disk: FileBackedDisk, injector: "FaultInjector | None") -> None:
        disk.fault_injector = injector
        disk.wal.fault_injector = injector

    def test_torn_append_rolled_back_and_retried(self, tmp_path):
        disk = FileBackedDisk(str(tmp_path / "d"), page_size=256,
                              wal_buffer_bytes=1)
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(op="wal_append", kind="torn", at=0,
                                       run=2),))
        )
        self._attach(disk, injector)
        page_id = disk.allocate()
        disk.write(_page(page_id, b"x" * 200))  # tiny buffer forces a spill
        disk.commit_batch({"stores": {}})
        assert injector.stats.injected.get("torn") == 2
        assert injector.stats.retries == 2
        self._attach(disk, None)
        assert disk.read(page_id).data == b"x" * 200
        disk.checkpoint({"stores": {}})
        disk.close()
        recovered, _catalog = FileBackedDisk.open(str(tmp_path / "d"))
        assert recovered.read(page_id).data == b"x" * 200
        recovered.close()

    def test_failed_commit_rolls_back_and_stays_retryable(self, tmp_path):
        disk = FileBackedDisk(str(tmp_path / "d"), page_size=256)
        first = disk.allocate()
        disk.write(_page(first, b"committed"))
        disk.commit_batch({"stores": {}})
        second = disk.allocate()
        disk.write(_page(second, b"pending"))
        self._attach(disk, FaultInjector(
            FaultPlan(specs=(FaultSpec(op="wal_commit", kind="transient", at=0,
                                       run=DEFAULT_RETRY_BUDGET + 2),)),
            shard=1,
        ))
        with pytest.raises(CommitError) as excinfo:
            disk.commit_batch({"stores": {}})
        assert excinfo.value.shard == 1
        assert disk.committed_batches == 1
        # The COMMIT record was rolled back; only the (uncommitted, replay-
        # invisible) spilled page record remains in the log.
        tail = replay(disk.wal.path)
        assert tail.batch_id == 1
        # The batch is still in memory and retryable once the fault clears.
        self._attach(disk, None)
        assert disk.commit_batch({"stores": {}}) == 2
        assert disk.read(second).data == b"pending"
        disk.close()

    def test_fsync_fault_uses_power_loss_semantics(self, tmp_path):
        disk = FileBackedDisk(str(tmp_path / "d"), page_size=256)
        page_id = disk.allocate()
        disk.write(_page(page_id, b"durable"))
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(op="wal_fsync", kind="fsync", at=0,
                                       run=2),))
        )
        self._attach(disk, injector)
        # The commit retries: each failed fsync rolls the log back to the
        # pre-commit offset (the record may not be durable) and re-appends.
        assert disk.commit_batch({"stores": {}}) == 1
        assert injector.stats.retries == 2
        self._attach(disk, None)
        disk.checkpoint({"stores": {}})
        disk.close()
        recovered, _catalog = FileBackedDisk.open(str(tmp_path / "d"))
        assert recovered.read(page_id).data == b"durable"
        recovered.close()


class TestCheckpointInjection:
    def _env(self, path: str) -> StorageEnvironment:
        env = StorageEnvironment(cache_pages=16, page_size=256, path=path)
        kv = env.create_kvstore("t.kv")
        for i in range(30):
            kv.put(i, i * 10)
        return env

    def test_checkpoint_survives_transient_meta_and_data_faults(self, tmp_path):
        env = self._env(str(tmp_path / "e"))
        env.inject_faults(FaultPlan(specs=(
            FaultSpec(op="data_write", kind="transient", at=0, run=2),
            FaultSpec(op="meta_write", kind="torn", at=0, run=2),
            FaultSpec(op="data_fsync", kind="fsync", at=0),
            FaultSpec(op="meta_fsync", kind="fsync", at=0),
        )))
        env.checkpoint(app_state={"ok": True})
        env.clear_faults()
        env.close()
        recovered = open_environment(str(tmp_path / "e"))
        assert dict(recovered.kvstore("t.kv").items()) == {
            i: i * 10 for i in range(30)
        }
        recovered.close()

    def test_hard_checkpoint_failure_leaves_recoverable_state(self, tmp_path):
        env = self._env(str(tmp_path / "e"))
        env.commit()
        env.inject_faults(FaultPlan(specs=(
            FaultSpec(op="meta_write", kind="transient", at=0,
                      run=DEFAULT_RETRY_BUDGET + 3),
        )))
        with pytest.raises(RetryExhaustedError):
            env.checkpoint()
        env.crash()
        recovered = open_environment(str(tmp_path / "e"))
        assert dict(recovered.kvstore("t.kv").items()) == {
            i: i * 10 for i in range(30)
        }
        recovered.close()


# ---------------------------------------------------------------------------
# Data-at-rest integrity: checksums, bit-rot, scrub
# ---------------------------------------------------------------------------


class TestBitRot:
    def _checkpointed_disk(self, path: str) -> tuple[FileBackedDisk, int]:
        disk = FileBackedDisk(path, page_size=256)
        page_id = disk.allocate()
        disk.write(_page(page_id, b"precious bytes" * 10))
        disk.commit_batch({"stores": {}})
        disk.checkpoint({"stores": {}})
        return disk, page_id

    def test_injected_bitrot_raises_checksum_error(self, tmp_path):
        disk, page_id = self._checkpointed_disk(str(tmp_path / "d"))
        disk.fault_injector = FaultInjector(
            FaultPlan(seed=9, specs=(FaultSpec(op="page_read", kind="bitrot",
                                               at=0),)),
            shard=0,
        )
        with pytest.raises(ChecksumError) as excinfo:
            disk.read(page_id)
        assert excinfo.value.shard == 0
        # The rot was injected on the read path only; the slot is clean.
        disk.fault_injector = None
        assert disk.read(page_id).data == b"precious bytes" * 10
        assert disk.scrub().clean
        disk.close()

    def test_scrub_enumerates_real_on_disk_rot(self, tmp_path):
        disk, page_id = self._checkpointed_disk(str(tmp_path / "d"))
        with open(os.path.join(str(tmp_path / "d"), "pages.dat"), "r+b") as f:
            f.seek(page_id * 256 + 3)
            byte = f.read(1)
            f.seek(page_id * 256 + 3)
            f.write(bytes([byte[0] ^ 0xFF]))
        report = disk.scrub()
        assert not report.clean
        assert page_id in report.corrupt_page_ids
        with pytest.raises(ChecksumError):
            disk.read(page_id)
        disk.close()

    def test_checksums_survive_recovery(self, tmp_path):
        disk, page_id = self._checkpointed_disk(str(tmp_path / "d"))
        disk.close()
        recovered, _catalog = FileBackedDisk.open(str(tmp_path / "d"))
        assert recovered._checksums[page_id] == zlib.crc32(b"precious bytes" * 10)
        assert recovered.scrub().clean
        recovered.close()


# ---------------------------------------------------------------------------
# Environment plumbing
# ---------------------------------------------------------------------------


class TestEnvironmentPlumbing:
    def test_inject_clear_and_stats(self, tmp_path):
        env = StorageEnvironment(cache_pages=8, page_size=256,
                                 path=str(tmp_path / "e"))
        env.create_kvstore("a").put(1, 1)
        env.inject_faults(FaultPlan(specs=(
            FaultSpec(op="write", kind="transient", at=0, run=2),
        )))
        env.commit()  # flushing the dirty page hits the faulted write path
        stats = env.fault_stats()
        assert stats.retries >= 1
        env.clear_faults()
        assert env.fault_stats() is None
        env.close()

    def test_disabled_plan_attaches_nothing(self):
        env = StorageEnvironment(cache_pages=8, page_size=256)
        env.inject_faults(FaultPlan.none())
        assert env.disk.fault_injector is None
        env.close()
