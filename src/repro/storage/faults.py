"""Seeded, deterministic storage fault injection.

Real disks fail in ways a clean ``crash()`` never exercises: writes error
transiently, fsyncs fail and take the unsynced tail with them on power loss,
page writes tear, the volume fills up, and bits rot silently under data at
rest.  This module schedules exactly those faults *deterministically* so the
tests (the state machine in ``tests/core/test_state_machine.py``) can drive
the engine through arbitrary failure histories and still be byte-reproducible
from a seed.

Model
-----
Every injectable operation site in the storage engine (see :data:`OP_KINDS`)
asks its :class:`FaultInjector` whether the *n*-th occurrence of that op
faults, and with which kind.  The decision is a pure function of
``(op, count, seed)`` — no wall clock, no global RNG — so the same plan
replayed against the same workload injects the same faults at the same
instructions.  A :class:`FaultPlan` combines:

* a background *rate* of transient/latency faults rolled per occurrence, with
  a bounded consecutive run length (``max_run``) so background noise alone
  never exceeds the retry budget; and
* explicit :class:`FaultSpec` escalations — "occurrences ``at .. at+run`` of
  op X fail with kind K" — which *are* allowed to outlast the budget and are
  how schedules deterministically force hard failures (retry exhaustion,
  ENOSPC, bit-rot, failed commits).

Fault kinds
-----------
``transient``
    The op raises :class:`~repro.errors.TransientIOError` before any effect.
``torn``
    A WAL append/commit writes only a prefix of its frame, then raises
    ``TransientIOError`` — the torn bytes stay in the file, exactly what a
    power cut mid-``write(2)`` leaves behind.
``fsync``
    The fsync call fails *after* the data reached the OS cache: power-loss
    semantics, the record may or may not be durable, so the caller must roll
    back to the last known-durable offset before retrying.
``enospc``
    :class:`~repro.errors.DiskFullError`; hard, never retried.
``bitrot``
    A page image read from ``pages.dat`` comes back with one byte flipped;
    detection is the per-page checksum's job, not the injector's.
``latency``
    The op sleeps ``latency_s`` and then proceeds normally.

With no injector attached (the default everywhere) every hook is a single
``is not None`` check — accounting, fingerprints and timings are untouched,
which is what keeps fig7/table1 bit-identical with injection disabled.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro.errors import (
    DiskFullError,
    RetryExhaustedError,
    StorageError,
    TransientIOError,
)
from repro.obs.events import emit

#: Injection sites and the fault kinds meaningful at each.  ``read``/``write``/
#: ``allocate`` fire on the public ``SimulatedDisk`` accounting paths (both
#: backends); the remaining sites are file-backend internals.
OP_KINDS: dict[str, tuple[str, ...]] = {
    "read": ("transient", "latency"),
    "write": ("transient", "latency", "enospc"),
    "allocate": ("transient", "enospc"),
    "page_read": ("bitrot", "latency"),
    "wal_append": ("transient", "torn", "enospc", "latency"),
    "wal_commit": ("transient", "torn", "latency"),
    "wal_fsync": ("fsync",),
    "data_write": ("transient", "torn", "enospc"),
    "data_fsync": ("fsync",),
    "meta_write": ("transient", "torn"),
    "meta_fsync": ("fsync",),
}

FAULT_KINDS = ("transient", "torn", "fsync", "enospc", "bitrot", "latency")

#: How many times a transient fault is retried before escalating.
DEFAULT_RETRY_BUDGET = 4


@dataclass(frozen=True)
class FaultSpec:
    """An explicit scheduled fault: occurrences ``[at, at + run)`` of ``op``
    fail with ``kind``.  Escalations bypass the background ``max_run`` bound,
    so a spec with ``run > retry_budget`` deterministically exhausts retries.
    """

    op: str
    kind: str
    at: int
    run: int = 1

    def __post_init__(self) -> None:
        if self.op not in OP_KINDS:
            raise StorageError(f"unknown fault op {self.op!r}; known: {sorted(OP_KINDS)}")
        if self.kind not in FAULT_KINDS:
            raise StorageError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.at < 0 or self.run < 1:
            raise StorageError(f"fault spec needs at >= 0 and run >= 1, got {self}")

    def covers(self, count: int) -> bool:
        return self.at <= count < self.at + self.run


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule keyed by ``(op, count, seed)``.

    Parameters
    ----------
    seed:
        Seed of the background roll; ``None`` disables background faults
        entirely (explicit ``specs`` still fire).
    rate:
        Per-occurrence probability of a background fault on each op in
        ``ops``.
    ops:
        Ops subject to background faults (defaults to every site whose kinds
        include ``transient`` or ``latency``).
    max_run:
        Longest consecutive background-fault run per op.  Keeping it below
        the retry budget guarantees background noise alone always retries to
        success; only explicit escalation specs can exhaust the budget.
    specs:
        Explicit scheduled faults (see :class:`FaultSpec`).
    retry_budget / backoff_s:
        Bounded-retry policy: a transient fault is retried up to
        ``retry_budget`` times with a deterministic linear backoff of
        ``backoff_s * attempt`` seconds (0 keeps tests instant), then
        escalates to :class:`~repro.errors.RetryExhaustedError`.
    latency_s:
        Sleep injected by ``latency`` faults.
    shards:
        When set, :meth:`for_shard` returns a disabled plan for any shard not
        in the tuple, confining the blast radius to chosen failure domains.
    """

    seed: "int | None" = None
    rate: float = 0.0
    ops: "tuple[str, ...] | None" = None
    max_run: int = 2
    specs: tuple[FaultSpec, ...] = ()
    retry_budget: int = DEFAULT_RETRY_BUDGET
    backoff_s: float = 0.0
    latency_s: float = 0.0
    shards: "tuple[int, ...] | None" = None

    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan that never faults (plumbing exercised, behaviour unchanged)."""
        return cls()

    @classmethod
    def chaos(cls, seed: int, backend: str = "file", rate: float = 0.02,
              escalations: int = 1, retry_budget: int = DEFAULT_RETRY_BUDGET,
              shards: "tuple[int, ...] | None" = None) -> "FaultPlan":
        """A seeded storm profile matched to what a backend can survive.

        The memory backend has no durable state to recover from, so its
        profile only schedules faults that are atomic by construction:
        transient runs *within* the retry budget, always retried back to
        success — a multi-page update that escalated mid-flight would strand
        a partial in-memory mutation nothing can roll back.  The file
        backend additionally gets budget-exceeding escalations, torn
        appends, failed fsyncs, ENOSPC and bit-rot — its hard failures are
        survivable because crash-recovery rolls the environment back to the
        last commit.
        """
        # String seeds hash via SHA-512, so schedules are PYTHONHASHSEED-proof.
        rng = random.Random(f"chaos:{seed}:{backend}")
        if backend == "memory":
            ops: tuple[str, ...] = ("read", "write")
            spec_menu: list[tuple[str, str]] = [("read", "transient"),
                                                ("write", "transient")]
            # Stay inside the budget even when a background run (max_run)
            # lands flush against the spec window: memory cannot recover.
            exceed = -min(2, max(0, retry_budget - 1))
        else:
            ops = ("read", "write", "wal_append", "wal_commit", "wal_fsync")
            spec_menu = [
                ("read", "transient"),
                ("wal_commit", "transient"),
                ("wal_fsync", "fsync"),
                ("wal_append", "torn"),
                ("page_read", "bitrot"),
                ("wal_append", "enospc"),
            ]
            exceed = 2
        specs = []
        for position in range(max(0, escalations)):
            op, kind = rng.choice(spec_menu)
            run = (max(1, retry_budget + exceed)
                   if kind in ("transient", "fsync", "torn") else 1)
            at = rng.randrange(4, 60)
            if backend == "memory":
                # One window per 64 occurrences: two runs on one op must
                # never chain into a run longer than the budget.
                at += 64 * position
            specs.append(FaultSpec(op=op, kind=kind, at=at, run=run))
        return cls(
            seed=seed, rate=rate, ops=ops, max_run=min(2, retry_budget - 1),
            specs=tuple(specs), retry_budget=retry_budget, shards=shards,
        )

    @property
    def enabled(self) -> bool:
        """Whether this plan can ever inject anything."""
        return bool(self.specs) or (self.seed is not None and self.rate > 0.0)

    def for_shard(self, shard: int) -> "FaultPlan":
        """The plan as seen by one shard's injector (derived seed per shard)."""
        if self.shards is not None and shard not in self.shards:
            return replace(self, seed=None, rate=0.0, specs=())
        if self.seed is None:
            return self
        return replace(self, seed=(self.seed * 1_000_003 + shard) & 0x7FFFFFFF)

    def fault_at(self, op: str, count: int, current_run: int) -> "str | None":
        """The fault kind (or ``None``) for the ``count``-th occurrence of ``op``."""
        for spec in self.specs:
            if spec.op == op and spec.covers(count):
                return spec.kind
        if self.seed is None or self.rate <= 0.0:
            return None
        if self.ops is not None and op not in self.ops:
            return None
        if current_run >= self.max_run:
            return None
        rng = random.Random(f"{self.seed}:{op}:{count}")
        if rng.random() >= self.rate:
            return None
        kinds = [kind for kind in OP_KINDS[op]
                 if kind in ("transient", "latency", "torn")]
        if not kinds:
            return None
        return rng.choice(kinds)


@dataclass
class FaultStats:
    """What an injector actually did (per-kind counts, retries, escalations)."""

    injected: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    escalations: int = 0

    def count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def merge(self, other: "FaultStats") -> "FaultStats":
        merged = FaultStats(
            injected=dict(self.injected),
            retries=self.retries + other.retries,
            escalations=self.escalations + other.escalations,
        )
        for kind, count in other.injected.items():
            merged.injected[kind] = merged.injected.get(kind, 0) + count
        return merged


class FaultInjector:
    """Runtime side of a :class:`FaultPlan`, attached to one disk (and WAL).

    Tracks per-op occurrence counts and consecutive-run lengths, applies
    latency faults inline, and tags every hard error it escalates with the
    owning ``shard`` so the router can quarantine the right failure domain.
    """

    __slots__ = ("plan", "shard", "stats", "_counts", "_runs")

    def __init__(self, plan: FaultPlan, shard: "int | None" = None) -> None:
        self.plan = plan
        self.shard = shard
        self.stats = FaultStats()
        self._counts: dict[str, int] = {}
        self._runs: dict[str, int] = {}

    # -- rolling -------------------------------------------------------------

    def roll(self, op: str) -> "str | None":
        """Decide the current occurrence of ``op``; latency is applied here.

        Returns the fault kind the *site* must act on (``transient``,
        ``torn``, ``fsync``, ``enospc``, ``bitrot``) or ``None``.
        """
        count = self._counts.get(op, 0)
        self._counts[op] = count + 1
        kind = self.plan.fault_at(op, count, self._runs.get(op, 0))
        if kind is None:
            self._runs[op] = 0
            return None
        self._runs[op] = self._runs.get(op, 0) + 1
        self.stats.count(kind)
        if kind == "latency":
            if self.plan.latency_s > 0.0:
                time.sleep(self.plan.latency_s)
            return None
        return kind

    def fault_point(self, op: str) -> None:
        """Raise-or-pass site for ops with no partial-effect semantics."""
        kind = self.roll(op)
        if kind is None:
            return
        if kind == "enospc":
            error = DiskFullError(f"injected ENOSPC on {op!r}")
            error.shard = self.shard
            raise error
        # torn/fsync/bitrot are meaningless here; treat them as transient.
        raise TransientIOError(f"injected transient fault on {op!r}")

    def corrupt(self, op: str, payload: bytes) -> bytes:
        """Deterministically flip one byte of ``payload`` on a bitrot roll."""
        if self.roll(op) != "bitrot" or not payload:
            return payload
        count = self._counts.get(op, 0)
        position = random.Random(f"{self.plan.seed}:{op}:{count}:pos").randrange(len(payload))
        mutated = bytearray(payload)
        mutated[position] ^= 0xFF
        return bytes(mutated)

    # -- retry policy ----------------------------------------------------------

    def backoff(self, attempt: int) -> None:
        """Deterministic linear backoff (no jitter; 0 by default)."""
        delay = self.plan.backoff_s * attempt
        if delay > 0.0:
            time.sleep(delay)

    def tag(self, error: BaseException) -> BaseException:
        """Attach this injector's failure domain to an escalated error."""
        if getattr(error, "shard", None) is None:
            try:
                error.shard = self.shard  # type: ignore[attr-defined]
            except AttributeError:
                pass
        return error


def run_with_retries(injector: "FaultInjector | None", op: str,
                     attempt: Callable[[], Any],
                     reset: "Callable[[], None] | None" = None) -> Any:
    """Run ``attempt`` with the bounded deterministic retry policy.

    ``attempt`` may raise :class:`~repro.errors.TransientIOError` (injected or
    real); each failure runs ``reset`` (cleanup to a retryable state — e.g.
    truncating a torn WAL tail), backs off deterministically and retries, up
    to the plan's budget, then escalates to
    :class:`~repro.errors.RetryExhaustedError` tagged with the failure domain.
    With no injector the call is pass-through (one extra ``None`` check).
    """
    if injector is None:
        return attempt()
    failures = 0
    while True:
        try:
            return attempt()
        except TransientIOError as exc:
            if reset is not None:
                reset()
            failures += 1
            if failures > injector.plan.retry_budget:
                injector.stats.escalations += 1
                emit("fault_escalation", shard=injector.shard, op=op,
                     retries=failures - 1)
                raise injector.tag(RetryExhaustedError(
                    f"{op}: still failing after {failures - 1} retries"
                )) from exc
            injector.stats.retries += 1
            injector.backoff(failures)


def merged_fault_stats(stats: Iterable[FaultStats]) -> FaultStats:
    """Aggregate several injectors' stats (sharded-environment reporting)."""
    total = FaultStats()
    for item in stats:
        total = total.merge(item)
    return total
