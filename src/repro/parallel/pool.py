"""A thread pool with a deterministic ordered-merge contract.

Parallel scans must never change *what* a query returns, only how fast
the wall clock says it ran.  The pool enforces the three rules that
make that true:

* tasks are submitted in the caller's order (the column store submits
  per-segment tasks in ascending segment id) and results are yielded
  back in exactly that order, so the merge concatenates partials the
  same way the serial loop does;
* task functions must not touch shared simulated state — in particular
  the shared :class:`~repro.common.clock.SimClock`.  A task *returns*
  its simulated charge and the caller accounts it on the shared clock
  in submission order, which keeps the simulated timeline bit-identical
  to the serial path (the cost-parity discipline);
* worker threads never mutate the store they read: scans snapshot the
  segment list up front and segments are sealed/immutable.

Observability: ``parallel.tasks`` counts fanned-out tasks and
``parallel.merge_ns`` records the wall-clock nanoseconds spent waiting
for + merging results (wall time is an *observation* here, it never
feeds back into simulated time or results).
"""

from __future__ import annotations

import time  # htaplint: ignore[HTL001] -- wall clock feeds only the parallel.merge_ns observability histogram, never simulated time or query results
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from ..obs.registry import get_registry

T = TypeVar("T")
R = TypeVar("R")

DEFAULT_WORKERS = 4

#: Rows per morsel when scans split segments into row ranges.  Chosen
#: cache-friendly (a few columns × 4096 values stay L2-resident) and
#: large enough that per-task overhead stays negligible; results and
#: simulated cost are invariant to this number by construction.
DEFAULT_MORSEL_ROWS = 4096


class OrderedSegmentPool:
    """Thread-based fan-out that preserves submission order on merge.

    ``morsel_rows`` is the scan work-unit granularity: segments larger
    than this split into row-range morsels (None: whole segments, the
    pre-morsel behavior).  The granularity affects only scheduling —
    the ordered merge and count-based charge accounting make results
    and simulated cost identical for every split.
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        morsel_rows: int | None = DEFAULT_MORSEL_ROWS,
    ):
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        if morsel_rows is not None and morsel_rows < 1:
            raise ValueError("morsel_rows must be >= 1 (or None)")
        self.workers = workers
        self.morsel_rows = morsel_rows
        self._executor: ThreadPoolExecutor | None = None
        reg = get_registry()
        self._tasks_counter = reg.counter("parallel.tasks")
        self._merge_hist = reg.histogram("parallel.merge_ns")
        self.tasks_run = 0

    # ------------------------------------------------------------- lifecycle

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-scan"
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "OrderedSegmentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- map

    def map_ordered(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Run ``fn`` over ``items``, returning results in input order.

        With one worker (or one item) the tasks run inline on the
        calling thread — same code path, same ordering guarantee.
        """
        work: Sequence[T] = list(items)
        self.tasks_run += len(work)
        self._tasks_counter.inc(len(work))
        if len(work) <= 1 or self.workers == 1:
            start = time.perf_counter_ns()
            results = [fn(item) for item in work]
            self._merge_hist.observe(time.perf_counter_ns() - start)
            return results
        executor = self._ensure_executor()
        start = time.perf_counter_ns()
        # Executor.map yields results in submission order regardless of
        # completion order — the deterministic ordered merge.
        results = list(executor.map(fn, work))
        self._merge_hist.observe(time.perf_counter_ns() - start)
        return results


# ----------------------------------------------------------------- default pool

_default_pool: OrderedSegmentPool | None = None


def get_default_pool() -> OrderedSegmentPool | None:
    """The process-wide pool parallel-enabled scans use, or None."""
    return _default_pool


def set_default_pool(pool: OrderedSegmentPool | None) -> OrderedSegmentPool | None:
    """Install (or clear, with None) the default scan pool; returns the
    previous one so callers can restore it."""
    global _default_pool
    previous = _default_pool
    _default_pool = pool
    return previous


@contextmanager
def scan_parallel(
    workers: int = DEFAULT_WORKERS,
    morsel_rows: int | None = DEFAULT_MORSEL_ROWS,
) -> Iterator[OrderedSegmentPool]:
    """Run the enclosed block with morsel-parallel scans enabled."""
    pool = OrderedSegmentPool(workers, morsel_rows=morsel_rows)
    previous = set_default_pool(pool)
    try:
        yield pool
    finally:
        set_default_pool(previous)
        pool.close()
