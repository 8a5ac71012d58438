"""The process-pool shard layer.

SAT obligations (prove / equiv / timing classification) and long scalar
sims are CPU-bound pure Python: running them on the daemon's event loop
would freeze every other request, and running them on threads would
still serialize on the GIL.  The :class:`ShardPool` runs them on a
``concurrent.futures.ProcessPoolExecutor`` -- one shard per CPU by
default -- through :meth:`ShardPool.run`, an awaitable with:

* a **bounded queue**: once ``max_queue`` jobs are in flight the pool
  sheds load by raising :class:`PoolSaturated` (the server maps it to
  HTTP 503 with a Retry-After hint) instead of letting latency grow
  without bound;
* a **per-request timeout**: a job that exceeds its deadline raises
  :class:`PoolTimeout` (HTTP 504) and its future is cancelled; a worker
  already executing it runs to completion but its result is dropped, so
  a stuck obligation cannot wedge the request path.

Jobs must be top-level picklable callables -- see
:mod:`repro.service.jobs`.
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager


class PoolSaturated(Exception):
    """The bounded queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float):
        super().__init__(
            f"worker pool saturated; retry after {retry_after:.0f}s"
        )
        self.retry_after = retry_after


class PoolTimeout(Exception):
    """A job exceeded its per-request deadline."""

    def __init__(self, timeout: float):
        super().__init__(f"job exceeded its {timeout:.0f}s deadline")
        self.timeout = timeout


class ShardPool:
    """A bounded, lazily started process pool of compute shards."""

    def __init__(
        self,
        workers: int | None = None,
        *,
        max_queue: int | None = None,
        timeout: float = 60.0,
        retry_after: float = 1.0,
    ):
        self.workers = workers or os.cpu_count() or 1
        # Default headroom: twice the shard count may wait before the
        # pool starts shedding.
        self.max_queue = (
            max_queue if max_queue is not None else self.workers * 2
        )
        self.timeout = timeout
        self.retry_after = retry_after
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self.pending = 0
        self.submitted = 0
        self.completed = 0
        self.timeouts = 0
        self.shed = 0

    def _get_executor(self) -> ProcessPoolExecutor:
        # Lazy: `zeusc serve` should not fork workers it never uses,
        # and tests that only exercise the cache/mux never pay for it.
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers
                )
            return self._executor

    @contextmanager
    def _slot(self, timeout: float | None):
        """Admit one job -- or shed it with :class:`PoolSaturated` when
        the queue is full -- and yield its deadline."""
        with self._lock:
            if self.pending >= self.workers + self.max_queue:
                self.shed += 1
                raise PoolSaturated(self.retry_after)
            self.pending += 1
            self.submitted += 1
        try:
            yield timeout if timeout is not None else self.timeout
        finally:
            with self._lock:
                self.pending -= 1
                self.completed += 1

    def _timed_out(self, future, deadline: float) -> PoolTimeout:
        future.cancel()
        with self._lock:
            self.timeouts += 1
        return PoolTimeout(deadline)

    async def run(self, fn, /, *args, timeout: float | None = None):
        """Run ``fn(*args)`` on a shard; await its result.

        Raises :class:`PoolSaturated` immediately when the queue is
        full, :class:`PoolTimeout` when the deadline passes first.
        """
        with self._slot(timeout) as deadline:
            future = self._get_executor().submit(fn, *args)
            try:
                return await asyncio.wait_for(
                    asyncio.wrap_future(future), deadline
                )
            except (asyncio.TimeoutError, TimeoutError):
                raise self._timed_out(future, deadline) from None

    def run_sync(self, fn, /, *args, timeout: float | None = None):
        """Blocking variant of :meth:`run` (tests, benchmarks)."""
        with self._slot(timeout) as deadline:
            future = self._get_executor().submit(fn, *args)
            try:
                return future.result(deadline)
            except TimeoutError:
                raise self._timed_out(future, deadline) from None

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "queue_depth": max(0, self.pending - self.workers),
                "max_queue": self.max_queue,
                "active": min(self.pending, self.workers),
                "submitted": self.submitted,
                "completed": self.completed,
                "timeouts": self.timeouts,
                "shed": self.shed,
            }

    def shutdown(self) -> None:
        """Cancel queued jobs, stop the workers and wait for them, so no
        worker outlives the pool.  A worker still running a job (one
        whose deadline already passed, say) is terminated rather than
        waited out."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        # The executor's worker table is private, but it is the only
        # handle on the processes before Python 3.14.
        workers = list((executor._processes or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.join()
