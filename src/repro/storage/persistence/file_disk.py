"""File-backed disk: the ``SimulatedDisk`` page API over one paged file.

The paper's experiments run on a real disk-resident engine (BerkeleyDB over an
805 MB corpus); the memory-backed :class:`~repro.storage.disk.SimulatedDisk`
caps full-scale runs at RAM and loses everything on process exit.
:class:`FileBackedDisk` lifts both limits while keeping the *accounting*
bit-for-bit identical: it subclasses ``SimulatedDisk`` and overrides only the
storage-backend hooks, so every read/write charges exactly the counters the
memory backend would charge, and page payload bytes are identical under
``PYTHONHASHSEED=0``.

Durability protocol (redo logging, no-force / steal-safe):

* ``pages.dat`` — fixed-slot paged file holding the image of the **last
  checkpoint**: slot *i* occupies bytes ``[i * page_size, (i+1) * page_size)``
  padded with zeros; payload lengths live in the catalog, not the file.
* ``wal.log`` — every page written since the checkpoint, plus one ``COMMIT``
  record per batch carrying the catalog parts that changed since the
  previous durable record (see :mod:`repro.storage.persistence.wal`).  The
  disk's part is the allocation cursor plus the payload length (or
  ``None``, freed) of every page id created, written or freed since then.
  Page images buffer in memory and spill to the log when the buffer exceeds
  ``wal_buffer_bytes``, so RAM holds at most one buffer's worth of
  un-spilled images regardless of corpus size.
* ``meta.pkl`` — the whole checkpoint catalog (free-page bitmap, payload
  lengths, per-page checksums, next page id, plus whatever the environment
  adds), written atomically via rename.  The bitmap and the checksums change
  only here.

``checkpoint()`` folds the committed overlay into ``pages.dat``, rewrites
``meta.pkl`` and truncates the log; :func:`FileBackedDisk.open` loads the
checkpoint, replays the WAL's committed prefix and folds its records over the
checkpoint catalog in log order, which restores exactly the state of the last
group commit — a crash mid-batch loses only the uncommitted tail.

The free-page bitmap records which page ids are live.  Allocation stays
monotonic (freed ids are never reused) to mirror the memory backend's id
sequence exactly — the bitmap exists so recovery knows which slots are live
and so a future compactor could reclaim the dead ones.
"""

from __future__ import annotations

import os
import pickle
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    ChecksumError,
    CommitError,
    DiskFullError,
    FormatVersionError,
    PageNotFoundError,
    StorageError,
    StoreClosedError,
    TransientIOError,
)
from repro.obs.trace import span
from repro.storage.btree import FORMAT_VERSION
from repro.storage.disk import DiskStats, SimulatedDisk
from repro.storage.environment import fold_catalog
from repro.storage.faults import run_with_retries
from repro.storage.pager import PAGE_SIZE, Page
from repro.storage.persistence.wal import ReplayResult, WalSlot, WriteAheadLog, replay

_PAGES_FILE = "pages.dat"
_WAL_FILE = "wal.log"
_META_FILE = "meta.pkl"
_META_TMP = "meta.pkl.tmp"

#: Default in-memory budget for not-yet-spilled page images.
DEFAULT_WAL_BUFFER_BYTES = 4 * 1024 * 1024


def check_format_version(path: str, found: int) -> None:
    """Refuse a directory written in another on-disk format (a catalog
    without a version predates versioning: format 1, pickled nodes)."""
    if found != FORMAT_VERSION:
        raise FormatVersionError(
            f"{path!r} holds on-disk format {found}; this engine reads format "
            f"{FORMAT_VERSION} (B+-tree nodes as byte runs, not pickled)")


def fsync_directory(path: str) -> None:
    """fsync a directory so a rename inside it is itself durable.

    ``os.replace`` makes the *file* contents atomic, but the directory entry
    pointing at the new inode lives in the directory's own metadata — on
    power loss before the directory block is flushed, the rename can simply
    vanish.  Best-effort on platforms whose directories cannot be opened.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of a checksum scrub over the checkpointed page file."""

    pages_checked: int = 0
    corrupt_page_ids: tuple[int, ...] = field(default=())

    @property
    def clean(self) -> bool:
        return not self.corrupt_page_ids


class PageBitmap:
    """A dense bitmap over page ids marking which pages are live.

    This is the persisted liveness authority of the disk's free/live page
    set in the checkpoint catalog (one bit per page), sufficient for
    recovery to reconstruct ``contains``/``page_count`` without scanning the
    paged file; ``COMMIT`` records carry only the page ids that changed.
    Payload sizes of non-empty pages travel separately in the catalog's
    lengths dict; empty live pages exist only here.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: bytearray | None = None) -> None:
        self._bits = bits if bits is not None else bytearray()

    def set(self, page_id: int) -> None:
        byte, bit = divmod(page_id, 8)
        if byte >= len(self._bits):
            self._bits.extend(b"\x00" * (byte + 1 - len(self._bits)))
        self._bits[byte] |= 1 << bit

    def clear(self, page_id: int) -> None:
        byte, bit = divmod(page_id, 8)
        if byte < len(self._bits):
            self._bits[byte] &= ~(1 << bit)

    def __contains__(self, page_id: int) -> bool:
        byte, bit = divmod(page_id, 8)
        return byte < len(self._bits) and bool(self._bits[byte] & (1 << bit))

    def live_ids(self) -> list[int]:
        """All live page ids in ascending order."""
        ids = []
        for byte, value in enumerate(self._bits):
            if not value:
                continue
            base = byte * 8
            for bit in range(8):
                if value & (1 << bit):
                    ids.append(base + bit)
        return ids

    def to_bytes(self) -> bytes:
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PageBitmap":
        return cls(bytearray(data))


class FileBackedDisk(SimulatedDisk):
    """The exact ``SimulatedDisk`` API and accounting over a single paged file.

    Parameters
    ----------
    path:
        Directory holding ``pages.dat``, ``wal.log`` and ``meta.pkl``
        (created when missing).  Use :meth:`open` to recover an existing
        directory; the constructor starts a fresh, empty disk and refuses a
        directory that already contains one.
    page_size:
        Page size in bytes; must match across reopenings (persisted in the
        checkpoint catalog).
    wal_buffer_bytes:
        In-memory budget for page images not yet spilled to the WAL file.
    """

    def __init__(self, path: str, page_size: int = PAGE_SIZE,
                 wal_buffer_bytes: int = DEFAULT_WAL_BUFFER_BYTES) -> None:
        os.makedirs(path, exist_ok=True)
        if os.path.exists(os.path.join(path, _META_FILE)):
            raise StorageError(
                f"{path!r} already holds a persistent disk; "
                "use FileBackedDisk.open() to recover it"
            )
        self.path = path
        self.page_size = page_size
        self.stats = DiskStats()
        self._pages: dict[int, Page] = {}  # unused; kept for dataclass repr
        self._next_page_id = 0
        self._last_accessed = None
        self._wal_buffer_bytes = wal_buffer_bytes
        self.fault_injector = None
        #: payload length per live page id (the in-memory face of the bitmap).
        self._lengths: dict[int, int] = {}
        #: crc32 per non-empty page slot in ``pages.dat`` (set when a page is
        #: folded at checkpoint; verified when its slot is read back).
        self._checksums: dict[int, int] = {}
        #: page id -> payload bytes (not yet spilled) or WalSlot (spilled),
        #: for writes of the current uncommitted batch.
        self._uncommitted: dict[int, "bytes | WalSlot"] = {}
        #: same mapping for committed-but-not-yet-checkpointed writes.
        self._overlay: dict[int, "bytes | WalSlot"] = {}
        self._buffered_bytes = 0
        #: page ids below this bound have a valid slot in ``pages.dat``.
        self._checkpointed_next_id = 0
        #: page ids created, written or freed since the last durable record.
        self._dirty: set[int] = set()
        self.committed_batches = 0
        self._closed = False
        self._pages_file = open(os.path.join(path, _PAGES_FILE), "w+b")
        self.wal = WriteAheadLog(os.path.join(path, _WAL_FILE))
        if self.wal.size_bytes() > 0:
            # A stale log without a checkpoint belongs to an abandoned
            # pre-first-checkpoint run; a fresh disk starts clean.
            self.wal.truncate(0)

    # -- recovery ------------------------------------------------------------

    @classmethod
    def open(cls, path: str,
             wal_buffer_bytes: int = DEFAULT_WAL_BUFFER_BYTES,
             max_batch: "int | None" = None
             ) -> tuple["FileBackedDisk", "dict[str, Any] | None"]:
        """Recover a disk from its directory.

        Loads the checkpoint catalog, replays the WAL's committed prefix on
        top, truncates the torn/uncommitted tail, and returns
        ``(disk, catalog)`` where ``catalog`` is the environment-level
        catalog as of the most recent commit: every committed record folded,
        in batch order, over the checkpoint's (the disk keeps its own part).

        ``max_batch`` caps the replay at a batch id (commits beyond it are
        truncated with the tail) — sharded recovery's rollback of a torn
        group-commit fan-out.  It cannot reach below the last checkpoint:
        batches folded into the paged file are not in the log any more.
        """
        meta_path = os.path.join(path, _META_FILE)
        if not os.path.exists(meta_path):
            raise StorageError(f"{path!r} does not hold a persistent disk")
        with open(meta_path, "rb") as handle:
            meta = pickle.load(handle)
        check_format_version(path, meta.get("format", 1))
        replayed: ReplayResult = replay(os.path.join(path, _WAL_FILE),
                                        max_batch=max_batch)

        disk = cls.__new__(cls)
        disk.path = path
        disk.page_size = meta["disk"]["page_size"]
        disk.stats = DiskStats()
        disk._pages = {}
        disk._wal_buffer_bytes = wal_buffer_bytes
        disk._last_accessed = None
        disk.fault_injector = None
        disk._uncommitted = {}
        disk._buffered_bytes = 0
        disk._closed = False
        disk._dirty = set()
        disk._restore_disk_state(meta["disk"])
        catalog = dict(meta)
        catalog.pop("disk")
        catalog.pop("format")
        for blob in replayed.catalogs:
            record = pickle.loads(blob)
            disk._fold_disk_part(record["disk"])
            catalog = fold_catalog(catalog, record)
        disk._checkpointed_next_id = meta["disk"]["next_page_id"]
        disk.committed_batches = replayed.batch_id or meta.get("batch", 0)
        disk._pages_file = open(os.path.join(path, _PAGES_FILE), "r+b")
        disk.wal = WriteAheadLog(os.path.join(path, _WAL_FILE))
        if disk.wal.size_bytes() > replayed.valid_bytes:
            disk.wal.truncate(replayed.valid_bytes)
        disk._overlay = dict(replayed.pages)
        return disk, catalog

    def _restore_disk_state(self, state: dict) -> None:
        # The bitmap is the liveness authority (empty live pages appear only
        # there); the lengths dict carries payload sizes for non-empty pages.
        bitmap = PageBitmap.from_bytes(state["bitmap"])
        lengths = state["lengths"]
        self._lengths = {page_id: lengths.get(page_id, 0)
                         for page_id in bitmap.live_ids()}
        self._next_page_id = state["next_page_id"]
        # Catalogs written before per-page checksums existed lack the key;
        # their pages simply go unverified until the next checkpoint.
        self._checksums = dict(state.get("checksums", {}))

    def _fold_disk_part(self, part: dict) -> None:
        """Apply one ``COMMIT`` record's disk part during recovery.

        A part with a bitmap is a whole disk state (written by an older
        writer, which put one in every record) and replaces ours.
        """
        if "bitmap" in part:
            self._restore_disk_state(part)
            return
        self._next_page_id = part["next_page_id"]
        for page_id, length in part["pages"].items():
            if length is None:
                self._lengths.pop(page_id, None)
                self._checksums.pop(page_id, None)
            else:
                self._lengths[page_id] = length

    # -- storage backend hooks (the accounting code lives in the base class) --

    def _backend_create(self, page_id: int) -> None:
        self._check_open()
        self._lengths[page_id] = 0
        self._dirty.add(page_id)

    def _backend_fetch(self, page_id: int) -> "Page | None":
        self._check_open()
        length = self._lengths.get(page_id)
        if length is None:
            return None
        return Page(page_id=page_id, capacity=self.page_size,
                    data=self._payload_of(page_id, length))

    def _backend_store(self, page: Page) -> None:
        self._check_open()
        previous = self._uncommitted.get(page.page_id)
        if isinstance(previous, bytes):
            self._buffered_bytes -= len(previous)
        self._uncommitted[page.page_id] = page.data
        self._lengths[page.page_id] = len(page.data)
        self._dirty.add(page.page_id)
        self._buffered_bytes += len(page.data)
        if self._buffered_bytes > self._wal_buffer_bytes:
            self._spill()

    def _backend_discard(self, page_id: int) -> None:
        self._check_open()
        self._lengths.pop(page_id, None)
        self._checksums.pop(page_id, None)
        self._dirty.add(page_id)
        previous = self._uncommitted.pop(page_id, None)
        if isinstance(previous, bytes):
            self._buffered_bytes -= len(previous)
        self._overlay.pop(page_id, None)

    def _backend_contains(self, page_id: int) -> bool:
        return page_id in self._lengths

    def _backend_page_count(self) -> int:
        return len(self._lengths)

    def _backend_used_bytes(self) -> int:
        return sum(self._lengths.values())

    # -- payload resolution ----------------------------------------------------

    def _payload_of(self, page_id: int, length: int) -> bytes:
        """Latest payload bytes of a live page, wherever they currently live."""
        image = self._uncommitted.get(page_id)
        if image is None:
            image = self._overlay.get(page_id)
        if isinstance(image, WalSlot):
            return self.wal.read_slot(image)
        if image is not None:
            return image
        if page_id < self._checkpointed_next_id and length > 0:
            self._pages_file.seek(page_id * self.page_size)
            data = self._pages_file.read(length)
            if len(data) != length:
                raise StorageError(
                    f"{self.path}: page {page_id} truncated in pages.dat "
                    f"({len(data)} of {length} bytes)"
                )
            if self.fault_injector is not None:
                data = self.fault_injector.corrupt("page_read", data)
            return self._verify_checksum(page_id, data)
        return b""

    def _verify_checksum(self, page_id: int, data: bytes) -> bytes:
        """Check a ``pages.dat`` slot image against its per-page checksum.

        Bit-rot under data at rest (injected or real) surfaces here as a
        typed :class:`~repro.errors.ChecksumError` tagged with the failure
        domain — instead of pickle garbage deep inside a B+-tree node decode.
        Pages from pre-checksum catalogs have no recorded checksum and pass
        unverified.
        """
        expected = self._checksums.get(page_id)
        if expected is not None and zlib.crc32(data) != expected:
            error = ChecksumError(
                f"{self.path}: page {page_id} failed its checksum in pages.dat "
                "(bit-rot or torn slot write)"
            )
            if self.fault_injector is not None:
                self.fault_injector.tag(error)
            raise error
        return data

    def scrub(self) -> ScrubReport:
        """Verify every checkpointed page slot against its checksum.

        Reads go straight to ``pages.dat`` (no accounting, no cache) and only
        cover pages whose authoritative image is the checkpoint slot — pages
        overlaid by WAL images are already CRC-framed by the log.  Returns a
        :class:`ScrubReport` instead of raising, so recovery tooling can
        enumerate all rot at once.
        """
        self._check_open()
        checked = 0
        corrupt: list[int] = []
        for page_id, length in sorted(self._lengths.items()):
            if (length == 0 or page_id >= self._checkpointed_next_id
                    or page_id in self._uncommitted or page_id in self._overlay):
                continue
            expected = self._checksums.get(page_id)
            if expected is None:
                continue
            self._pages_file.seek(page_id * self.page_size)
            data = self._pages_file.read(length)
            checked += 1
            if len(data) != length or zlib.crc32(data) != expected:
                corrupt.append(page_id)
        return ScrubReport(pages_checked=checked, corrupt_page_ids=tuple(corrupt))

    def _spill(self) -> None:
        """Move buffered page images into the WAL file, keeping only slots.

        This bounds the disk's memory footprint: between commits, RAM holds at
        most ``wal_buffer_bytes`` of raw images plus an ``(offset, length)``
        pair per written page.  Spilled records are uncommitted until the next
        :meth:`commit_batch` — replay ignores them without a ``COMMIT``.
        """
        injector = self.fault_injector
        with span("wal.append"):
            for page_id, image in self._uncommitted.items():
                if isinstance(image, bytes):
                    if injector is None:
                        self._uncommitted[page_id] = self.wal.append_write(
                            page_id, image
                        )
                    else:
                        # A torn append leaves a partial frame in the file; the
                        # reset rolls the log back to the pre-append offset so
                        # every retry starts from a clean tail.
                        start = self.wal.size_bytes()
                        self._uncommitted[page_id] = run_with_retries(
                            injector, "wal_append",
                            lambda image=image, page_id=page_id:
                                self.wal.append_write(page_id, image),
                            reset=lambda start=start: self.wal.truncate(start),
                        )
        self._buffered_bytes = 0

    # -- durability protocol -----------------------------------------------------

    def disk_state(self) -> dict:
        """The disk's slice of the checkpoint catalog (bitmap, lengths,
        checksums, allocation cursor).

        Liveness is carried by the free-page bitmap alone (one bit per page);
        the lengths dict records payload sizes only for non-empty pages, so
        the two structures are complementary, not redundant.
        """
        bitmap = PageBitmap()
        for page_id in self._lengths:
            bitmap.set(page_id)
        return {
            "page_size": self.page_size,
            "next_page_id": self._next_page_id,
            "bitmap": bitmap.to_bytes(),
            "lengths": {page_id: length
                        for page_id, length in self._lengths.items() if length},
            "checksums": dict(self._checksums),
        }

    def commit_batch(self, catalog: dict, batch_id: "int | None" = None) -> int:
        """Group-commit the current batch with the environment's record.

        ``catalog`` holds the environment's catalog parts that changed since
        the last durable record (recovery folds it over the ones before, see
        :func:`~repro.storage.environment.fold_catalog`); the disk adds its
        own part under ``"disk"``: the allocation cursor and the length of
        every page id created, written or freed since that record (``None``
        when freed).  Returns the new committed-batch id.

        ``batch_id`` names the batch instead of the next id: a sharded group
        commit files every shard under its commit point's id, and a shard
        that already committed that id (its fan-out was retried) appends a
        second record under it rather than running ahead.
        """
        self._check_open()
        catalog = dict(catalog)
        lengths = self._lengths
        catalog["disk"] = {
            "page_size": self.page_size,
            "next_page_id": self._next_page_id,
            "pages": {page_id: lengths.get(page_id) for page_id in self._dirty},
        }
        self._spill()
        if batch_id is None:
            batch_id = self.committed_batches + 1
        elif batch_id < self.committed_batches:
            raise StorageError(
                f"{self.path}: batch {batch_id} is behind the committed batch "
                f"{self.committed_batches}")
        catalog["batch"] = batch_id
        blob = pickle.dumps(catalog)
        # Atomic commit: nothing below mutates commit state until the COMMIT
        # record is durably fsynced.  A transient/torn/fsync fault rolls the
        # log back to the pre-commit offset (the record was never durable —
        # power-loss semantics) and retries; exhaustion escalates to a typed
        # CommitError with the batch still uncommitted, fully in memory, and
        # retryable — recovery after a crash lands on the *previous* commit.
        pre_commit = self.wal.size_bytes()

        def rollback() -> None:
            if self.wal.size_bytes() > pre_commit:
                self.wal.truncate(pre_commit)

        try:
            run_with_retries(
                self.fault_injector, "wal_commit",
                lambda: self.wal.commit(batch_id, blob),
                reset=rollback,
            )
        except StorageError as exc:
            rollback()
            error = CommitError(
                f"{self.path}: batch {batch_id} could not be made durable; "
                "rolled back to the last committed state"
            )
            if self.fault_injector is not None:
                self.fault_injector.tag(error)
            raise error from exc
        self.committed_batches = batch_id
        self._overlay.update(self._uncommitted)
        self._uncommitted.clear()
        self._buffered_bytes = 0
        self._dirty = set()
        return self.committed_batches

    def checkpoint(self, catalog: dict) -> None:
        """Fold the committed overlay into ``pages.dat`` and reset the WAL.

        Must be called at a batch boundary (the environment commits first);
        uncommitted writes would otherwise leak into the checkpoint image.
        """
        self._check_open()
        if self._uncommitted:
            raise StorageError(
                f"{self.path}: checkpoint with {len(self._uncommitted)} "
                "uncommitted page writes; commit the batch first"
            )
        # Fold first, catalog second: the catalog's checksum map must describe
        # the slots as this checkpoint leaves them.  Until the final meta
        # replace succeeds nothing is cleared, so any typed failure below
        # leaves the old checkpoint + intact WAL — still fully recoverable.
        injector = self.fault_injector
        for page_id, image in self._overlay.items():
            if page_id not in self._lengths:
                continue  # freed after the write; the slot is dead
            payload = self.wal.read_slot(image) if isinstance(image, WalSlot) else image
            if injector is None:
                self._pages_file.seek(page_id * self.page_size)
                self._pages_file.write(payload)
            else:
                # Slot writes are idempotent (same offset every attempt), so a
                # torn write needs no reset — the retry simply rewrites it.
                run_with_retries(
                    injector, "data_write",
                    lambda page_id=page_id, payload=payload:
                        self._injected_slot_write(page_id, payload),
                )
            if payload:
                self._checksums[page_id] = zlib.crc32(payload)
            else:
                self._checksums.pop(page_id, None)
        # Zero-fill to the allocation cursor so every live slot exists
        # (sparse where the filesystem supports it).
        self._pages_file.truncate(self._next_page_id * self.page_size)
        self._pages_file.flush()
        run_with_retries(
            injector, "data_fsync",
            lambda: self._injected_fsync("data_fsync", self._pages_file),
        )
        catalog = dict(catalog)
        catalog["disk"] = self.disk_state()
        catalog["batch"] = self.committed_batches
        catalog["format"] = FORMAT_VERSION
        # The tmp file is rewritten from scratch on every attempt, so a torn
        # meta write needs no reset either.
        run_with_retries(
            injector, "meta_write", lambda: self._write_meta(catalog)
        )
        os.replace(os.path.join(self.path, _META_TMP),
                   os.path.join(self.path, _META_FILE))
        # Without the directory fsync the rename itself can be lost on power
        # failure, resurrecting the previous checkpoint under a truncated WAL.
        fsync_directory(self.path)
        self._overlay.clear()
        self._checkpointed_next_id = self._next_page_id
        self.wal.truncate(0)

    def _injected_slot_write(self, page_id: int, payload: bytes) -> None:
        """One ``pages.dat`` slot write under the fault injector."""
        injector = self.fault_injector
        kind = injector.roll("data_write") if injector is not None else None
        if kind == "enospc":
            raise injector.tag(DiskFullError(
                f"{self.path}: injected ENOSPC writing page {page_id}"
            ))
        self._pages_file.seek(page_id * self.page_size)
        if kind == "torn":
            self._pages_file.write(payload[: max(1, len(payload) // 2)])
            raise TransientIOError(f"injected torn slot write of page {page_id}")
        if kind == "transient":
            raise TransientIOError(f"injected transient slot write of page {page_id}")
        self._pages_file.write(payload)

    def _injected_fsync(self, op: str, handle) -> None:
        """One fsync under the fault injector (retry == call it again)."""
        injector = self.fault_injector
        if injector is not None and injector.roll(op) == "fsync":
            raise TransientIOError(f"injected {op} failure")
        os.fsync(handle.fileno())

    def _write_meta(self, catalog: dict) -> None:
        """Write and fsync the checkpoint catalog to the tmp file."""
        injector = self.fault_injector
        kind = injector.roll("meta_write") if injector is not None else None
        if kind == "transient":
            raise TransientIOError("injected transient meta write")
        tmp_path = os.path.join(self.path, _META_TMP)
        blob = pickle.dumps(catalog, protocol=pickle.HIGHEST_PROTOCOL)
        with open(tmp_path, "wb") as handle:
            if kind == "torn":
                handle.write(blob[: max(1, len(blob) // 2)])
                handle.flush()
                raise TransientIOError("injected torn meta write")
            handle.write(blob)
            handle.flush()
            self._injected_fsync("meta_fsync", handle)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release file handles without checkpointing (idempotent).

        The environment checkpoints before closing in the orderly path;
        closing directly models a crash — committed batches survive, the
        uncommitted tail does not.
        """
        if self._closed:
            return
        self._closed = True
        self._pages_file.close()
        self.wal.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"disk at {self.path!r} is closed")

    # -- introspection -------------------------------------------------------------

    def pending_wal_pages(self) -> int:
        """Pages written since the last group commit (lost if we crash now)."""
        return len(self._uncommitted)

    def overlay_pages(self) -> int:
        """Committed pages not yet folded into ``pages.dat``."""
        return len(self._overlay)
