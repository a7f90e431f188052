"""Logical and simulated clocks.

The testbed never reads the wall clock.  Transactions are ordered by a
:class:`LogicalClock` (a monotone counter, as in most MVCC systems), and
performance is accounted on a :class:`SimClock` in simulated microseconds
so every benchmark is deterministic and independent of interpreter noise.
"""

from __future__ import annotations

Timestamp = int

#: Sentinel "end of time" for versions that are still the newest.
INFINITY_TS: Timestamp = 2**62


class LogicalClock:
    """Monotone counter handing out begin/commit timestamps."""

    def __init__(self, start: Timestamp = 1):
        self._now = start

    def now(self) -> Timestamp:
        return self._now

    def tick(self) -> Timestamp:
        """Advance and return the new timestamp (strictly increasing)."""
        self._now += 1
        return self._now

    def advance_to(self, ts: Timestamp) -> None:
        """Fast-forward so the next tick is after ``ts`` (HLC-style merge)."""
        if ts > self._now:
            self._now = ts


class SimClock:
    """Accumulates simulated time in microseconds.

    Subsystems call :meth:`advance` with the cost of each primitive they
    perform; benchmark harnesses read :meth:`now_us` before and after a
    workload to compute simulated throughput.
    """

    def __init__(self) -> None:
        self._now_us = 0.0

    def now_us(self) -> float:
        return self._now_us

    def now_s(self) -> float:
        return self._now_us / 1e6

    def advance(self, delta_us: float) -> None:
        if delta_us < 0:
            raise ValueError(f"cannot move simulated time backwards ({delta_us})")
        self._now_us += delta_us

    def advance_to(self, t_us: float) -> None:
        """Catch up to ``t_us`` if it is later than now."""
        if t_us > self._now_us:
            self._now_us = t_us

    def reset(self) -> None:
        self._now_us = 0.0


class StopWatch:
    """Measures a span of simulated time on a :class:`SimClock`."""

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._start = clock.now_us()

    def elapsed_us(self) -> float:
        return self._clock.now_us() - self._start

    def restart(self) -> None:
        self._start = self._clock.now_us()
