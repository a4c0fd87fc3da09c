"""Exception hierarchy for the SVR reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
applications can install a single ``except ReproError`` guard around calls into
the library.  Sub-hierarchies mirror the package layout: storage errors,
relational errors, text errors and index/query errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-engine failures."""


class PageError(StorageError):
    """A page could not be read, written or decoded."""


class PageNotFoundError(PageError):
    """A page id does not exist on the simulated disk."""


class BufferPoolError(StorageError):
    """The buffer pool was used incorrectly (e.g. invalid capacity)."""


class KeyNotFoundError(StorageError):
    """A key lookup in a B+-tree or key-value store found nothing."""


class DuplicateKeyError(StorageError):
    """An insert would violate a unique-key constraint."""


class StoreClosedError(StorageError):
    """An operation was attempted on a closed store or environment."""


class TransientIOError(StorageError):
    """A storage operation failed in a way that is expected to succeed on
    retry (injected or real transient I/O failure, failed fsync, torn append).

    The retry machinery (:func:`repro.storage.faults.run_with_retries`)
    consumes these internally; callers only ever see one escalated to
    :class:`RetryExhaustedError` after the retry budget.
    """


class RetryExhaustedError(StorageError):
    """A transient fault persisted past the bounded retry budget.

    Carries an optional ``shard`` attribute naming the failure domain when
    the fault originated inside a sharded environment (used by the router to
    quarantine the shard).
    """

    shard: "int | None" = None


class DiskFullError(StorageError):
    """The backend ran out of space (ENOSPC-class hard fault, not retried)."""

    shard: "int | None" = None


class ChecksumError(PageError):
    """A page image read from ``pages.dat`` failed its per-page checksum.

    Raised at read/scrub time so silent bit-rot surfaces as a typed storage
    error instead of pickle garbage in some higher layer.
    """

    shard: "int | None" = None


class CommitError(StorageError):
    """A group commit could not be made durable.

    The batch is rolled back to the pre-commit WAL state: nothing was
    half-applied, the writes stay uncommitted in memory, and the commit may
    be retried (or the environment crashed and recovered to the previous
    commit boundary).
    """

    shard: "int | None" = None


class ShardQuarantinedError(StorageError):
    """An operation touched a shard that is quarantined after a hard fault.

    Raised *before* any state is mutated, so failing fast is atomic; reopen
    the shard (or recover the environment) to re-admit it.
    """

    shard: "int | None" = None


#: Error types that mark a shard's storage as untrustworthy: the router
#: quarantines the owning shard when one of these carries a shard tag.
HARD_FAULT_ERRORS = (RetryExhaustedError, DiskFullError, ChecksumError, CommitError)


def shard_of_error(error: BaseException) -> "int | None":
    """The failure-domain (shard index) tag of an error, when present."""
    shard = getattr(error, "shard", None)
    return shard if isinstance(shard, int) else None


# ---------------------------------------------------------------------------
# Relational layer
# ---------------------------------------------------------------------------


class RelationalError(ReproError):
    """Base class for relational-engine failures."""


class SchemaError(RelationalError):
    """A schema definition is invalid or a row does not match its schema."""


class ConstraintError(RelationalError):
    """A primary-key or not-null constraint was violated."""


class UnknownTableError(RelationalError):
    """A referenced table does not exist in the database."""


class UnknownColumnError(RelationalError):
    """A referenced column does not exist in the table schema."""


class ViewError(RelationalError):
    """A materialised-view definition or refresh failed."""


class FunctionError(RelationalError):
    """A scalar (SQL-bodied) function failed to evaluate."""


# ---------------------------------------------------------------------------
# Text layer
# ---------------------------------------------------------------------------


class TextError(ReproError):
    """Base class for text-processing failures."""


class DocumentNotFoundError(TextError):
    """A document id is unknown to the document store."""


class TokenizationError(TextError):
    """A document could not be tokenised."""


# ---------------------------------------------------------------------------
# Core / index layer
# ---------------------------------------------------------------------------


class IndexError_(ReproError):
    """Base class for inverted-index failures.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``; exported as :data:`InvertedIndexError` for readability.
    """


InvertedIndexError = IndexError_


class UnknownMethodError(InvertedIndexError):
    """An index method name is not registered."""


class QueryError(InvertedIndexError):
    """A keyword query is malformed (e.g. empty keyword list, k <= 0)."""


class ScoreSpecError(ReproError):
    """An SVR score specification is invalid."""


class WorkloadError(ReproError):
    """A workload/data generator was configured with invalid parameters."""


class BenchmarkError(ReproError):
    """An experiment definition or run failed."""


class ObservabilityError(ReproError):
    """An observability component (histogram, registry, exporter) was misused."""
