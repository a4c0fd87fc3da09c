"""Inline stubs kept only because the frozen tracer ``benchmarks/e2e/e2e_tracing.py`` patches them."""

from __future__ import annotations

from typing import Any, Callable, Iterable


class ShardFuture:
    """The already-settled outcome of one inline task."""

    __slots__ = ("_value", "_error")

    def __init__(self, value: Any = None, error: "Exception | None" = None) -> None:
        self._value = value
        self._error = error

    def result(self) -> Any:
        """The task's return value; re-raises its exception if it failed."""
        if self._error is not None:
            raise self._error
        return self._value


class ExecutorPool:
    """Runs ``(shard, fn)`` tasks inline, in submission order."""

    def submit(self, shard: int, fn: Callable[[], Any]) -> ShardFuture:
        try:
            return ShardFuture(fn())
        except Exception as exc:
            return ShardFuture(error=exc)

    def map_shards(self, tasks: "Iterable[tuple[int, Callable[[], Any]]]") -> list[Any]:
        """Run every task and return the results in task order.

        Every task runs even when one fails; the first failure is then
        re-raised.
        """
        futures = [self.submit(shard, fn) for shard, fn in tasks]
        return [future.result() for future in futures]
