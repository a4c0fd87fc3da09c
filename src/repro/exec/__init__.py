"""Inline executor stubs kept for the frozen benchmark tracer.

Queries and writes run on their caller's thread; see
:mod:`repro.exec.executor` and ARCHITECTURE.md "Concurrent execution".
"""

from repro.exec.executor import ExecutorPool, ShardFuture

__all__ = ["ExecutorPool", "ShardFuture"]
