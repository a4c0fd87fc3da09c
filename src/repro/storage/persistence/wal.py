"""Page-granular write-ahead log with group-commit batching.

The log is the durability half of the redo protocol the file-backed disk
implements (see :mod:`repro.storage.persistence.file_disk`): the paged data
file always holds the image of the *last checkpoint*, and every page written
since then lives in the WAL.  A batch of page writes becomes durable in one
group commit — the buffered ``WRITE`` records are appended followed by a
single ``COMMIT`` record carrying the catalog blob: the parts of the
environment's catalog (store roots, page lengths, application state) that
changed since the previous durable record.  Recovery replays the longest
valid committed prefix, folds its records over the checkpoint catalog in log
order, and discards everything after the prefix, so a crash mid-batch loses
exactly the uncommitted tail and nothing else.

Record framing (all integers little-endian):

``WRITE``
    ``b"W" | page_id:u64 | length:u32 | payload | crc32:u32``
``COMMIT``
    ``b"C" | batch_id:u64 | length:u32 | catalog | crc32:u32``

The CRC covers the record type, header fields and payload, so a torn append
(power loss mid-write) is detected and the scan stops at the last intact
record.  Payload bytes of ``WRITE`` records are addressable by file offset,
which lets the disk keep only ``(offset, length)`` references to spilled page
images in memory — the WAL file doubles as the overflow store for pages
written since the last checkpoint.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field

from repro.errors import DiskFullError, StorageError, TransientIOError
from repro.obs.trace import span

_WRITE = b"W"
_COMMIT = b"C"
_WRITE_HEADER = struct.Struct("<cQI")   # type, page_id, payload length
_COMMIT_HEADER = struct.Struct("<cQI")  # type, batch_id, catalog length
_CRC = struct.Struct("<I")


@dataclass
class WalStats:
    """Counters for write-ahead-log activity.

    These are *durability* costs, kept separate from :class:`DiskStats`: the
    simulated I/O model charges page reads/writes identically for the memory
    and file backends, and the WAL tax is reported on the side so the
    fingerprint of a workload never depends on the backend.
    """

    records_appended: int = 0
    batches_committed: int = 0
    bytes_appended: int = 0
    truncations: int = 0


@dataclass(frozen=True)
class WalSlot:
    """Reference to a page image stored in the WAL file (spilled payload)."""

    offset: int
    length: int


@dataclass
class ReplayResult:
    """Outcome of scanning a WAL file.

    ``pages`` maps page id -> :class:`WalSlot` of its latest *committed*
    image; ``catalogs`` holds the blob of every valid ``COMMIT`` record in
    log order, and ``catalog`` the last of them (``None`` when no batch ever
    committed); ``valid_bytes`` is the offset of the end of the committed
    prefix — everything past it is an uncommitted or torn tail that recovery
    truncates away.
    """

    pages: dict[int, WalSlot] = field(default_factory=dict)
    catalogs: list[bytes] = field(default_factory=list)
    batch_id: int = 0
    valid_bytes: int = 0

    @property
    def catalog(self) -> "bytes | None":
        """Blob of the last committed record (``None`` when none committed)."""
        return self.catalogs[-1] if self.catalogs else None


class WriteAheadLog:
    """Append-only redo log over one file, with group commit and replay.

    Parameters
    ----------
    path:
        Log file path; created (empty) when missing.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.stats = WalStats()
        self._file = open(path, "a+b")
        self._file.seek(0, os.SEEK_END)
        #: Optional fault injector shared with the owning disk (see
        #: :mod:`repro.storage.faults`).  ``None`` keeps appends/commits on
        #: the plain fast path.
        self.fault_injector = None

    # -- fault plumbing -------------------------------------------------------

    def _fault_frame(self, op: str, frame: bytes) -> None:
        """Roll the injector before writing a record frame.

        ``transient`` raises before any byte lands; ``torn`` writes a strict
        prefix of the frame and then raises (what power loss mid-``write(2)``
        leaves behind — the caller's retry must roll the file back first);
        ``enospc`` escalates as a hard :class:`~repro.errors.DiskFullError`.
        """
        injector = self.fault_injector
        kind = injector.roll(op)
        if kind is None:
            return
        if kind == "enospc":
            raise injector.tag(DiskFullError(f"injected ENOSPC on WAL {op}"))
        if kind == "torn":
            self._file.write(frame[: max(1, len(frame) // 2)])
            self._file.flush()
            raise TransientIOError(f"injected torn WAL {op}")
        raise TransientIOError(f"injected transient WAL {op} failure")

    # -- appending -----------------------------------------------------------

    def append_write(self, page_id: int, payload: bytes) -> WalSlot:
        """Append one page image (uncommitted until :meth:`commit`).

        Returns the :class:`WalSlot` addressing the payload bytes inside the
        log file, so callers can drop the in-memory copy and read it back on
        demand.  The record is buffered by the OS; durability comes from the
        fsync in :meth:`commit`.
        """
        header = _WRITE_HEADER.pack(_WRITE, page_id, len(payload))
        crc = zlib.crc32(header)
        crc = zlib.crc32(payload, crc)
        start = self._file.tell()
        if self.fault_injector is not None:
            self._fault_frame("wal_append", header + payload + _CRC.pack(crc))
        self._file.write(header)
        self._file.write(payload)
        self._file.write(_CRC.pack(crc))
        self.stats.records_appended += 1
        self.stats.bytes_appended += _WRITE_HEADER.size + len(payload) + _CRC.size
        return WalSlot(offset=start + _WRITE_HEADER.size, length=len(payload))

    def commit(self, batch_id: int, catalog: bytes) -> None:
        """Group-commit everything appended so far plus the catalog blob.

        Appends the ``COMMIT`` record and fsyncs the file: this is the single
        durability point of a batch — before it, a crash loses the whole
        batch; after it, recovery replays the batch in full.  An injected
        ``fsync`` fault fires *after* the record reached the OS cache
        (power-loss semantics: the record may or may not be durable), so the
        caller must roll the log back to the pre-commit offset before
        retrying.
        """
        with span("wal.commit", batch=batch_id):
            header = _COMMIT_HEADER.pack(_COMMIT, batch_id, len(catalog))
            crc = zlib.crc32(header)
            crc = zlib.crc32(catalog, crc)
            injector = self.fault_injector
            if injector is not None:
                self._fault_frame("wal_commit", header + catalog + _CRC.pack(crc))
            self._file.write(header)
            self._file.write(catalog)
            self._file.write(_CRC.pack(crc))
            self._file.flush()
            if injector is not None and injector.roll("wal_fsync") == "fsync":
                raise TransientIOError(
                    "injected fsync failure on WAL commit (power-loss window)"
                )
            os.fsync(self._file.fileno())
            self.stats.records_appended += 1
            self.stats.batches_committed += 1
            self.stats.bytes_appended += (
                _COMMIT_HEADER.size + len(catalog) + _CRC.size
            )

    def read_slot(self, slot: WalSlot) -> bytes:
        """Read a spilled page image back from the log file."""
        self._file.flush()
        position = self._file.tell()
        self._file.seek(slot.offset)
        payload = self._file.read(slot.length)
        self._file.seek(position)
        if len(payload) != slot.length:
            raise StorageError(
                f"WAL {self.path}: slot at {slot.offset} truncated "
                f"({len(payload)} of {slot.length} bytes)"
            )
        return payload

    # -- lifecycle -----------------------------------------------------------

    def truncate(self, size: int = 0) -> None:
        """Cut the log back to ``size`` bytes (checkpoint / torn-tail cleanup).

        Deliberately free of injection sites: truncation is the *rollback*
        half of every retry/abort path, and injecting faults into cleanup
        would make failure handling itself unreliable (see the failure-model
        notes in ARCHITECTURE.md).
        """
        self._file.flush()
        self._file.truncate(size)
        self._file.seek(size)
        os.fsync(self._file.fileno())
        self.stats.truncations += 1

    def size_bytes(self) -> int:
        """Current size of the log file in bytes."""
        self._file.flush()
        return self._file.tell()

    def close(self) -> None:
        """Release the file handle (idempotent)."""
        if not self._file.closed:
            self._file.close()

    @property
    def closed(self) -> bool:
        return self._file.closed


def replay(path: str, max_batch: "int | None" = None) -> ReplayResult:
    """Scan a WAL file and return its longest valid committed prefix.

    The scan walks records sequentially, verifying each CRC; ``WRITE``
    records accumulate into a pending batch that is promoted into the result
    only when its ``COMMIT`` record is reached intact.  A truncated or
    corrupt record ends the scan — everything from the last valid ``COMMIT``
    onwards is an uncommitted tail the caller should truncate.

    ``max_batch`` caps the prefix at a batch id: commits beyond it are
    treated as tail and discarded.  Sharded recovery uses this to roll a
    shard that committed *inside* a torn group-commit fan-out back to the
    commit point (batch ids in one log never decrease, so the cap
    is a clean prefix cut).
    """
    result = ReplayResult()
    if not os.path.exists(path):
        return result
    pending: dict[int, WalSlot] = {}
    with open(path, "rb") as handle:
        while True:
            start = handle.tell()
            header = handle.read(_WRITE_HEADER.size)
            if len(header) < _WRITE_HEADER.size:
                break
            kind = header[:1]
            if kind == _WRITE:
                _, page_id, length = _WRITE_HEADER.unpack(header)
                payload = handle.read(length)
                crc_raw = handle.read(_CRC.size)
                if len(payload) < length or len(crc_raw) < _CRC.size:
                    break
                crc = zlib.crc32(header)
                crc = zlib.crc32(payload, crc)
                if _CRC.unpack(crc_raw)[0] != crc:
                    break
                pending[page_id] = WalSlot(
                    offset=start + _WRITE_HEADER.size, length=length
                )
            elif kind == _COMMIT:
                _, batch_id, length = _COMMIT_HEADER.unpack(header)
                if max_batch is not None and batch_id > max_batch:
                    break
                catalog = handle.read(length)
                crc_raw = handle.read(_CRC.size)
                if len(catalog) < length or len(crc_raw) < _CRC.size:
                    break
                crc = zlib.crc32(header)
                crc = zlib.crc32(catalog, crc)
                if _CRC.unpack(crc_raw)[0] != crc:
                    break
                result.pages.update(pending)
                pending.clear()
                result.catalogs.append(catalog)
                result.batch_id = batch_id
                result.valid_bytes = handle.tell()
            else:
                break
    return result
