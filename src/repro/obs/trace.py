"""Sim-time tracing: nestable spans measured on a :class:`SimClock`.

A :class:`SimTracer` wraps regions of work (`engine.query`, `engine.sync`,
`wal.force` ...) in spans whose start/end timestamps come from the shared
simulated clock, so a bench can ask *where the simulated microseconds
went* without wall-clock noise.  Spans nest (a sync span inside a query
span records its parent and depth) and the whole trace exports as a flat
event log ordered by completion.

Tracing is **off by default** and a disabled tracer is a no-op: it never
advances the clock — spans only *read* it — and records nothing, so
instrumented code paths charge zero extra simulated time when the bench
has not opted in.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator

from ..common.clock import SimClock


@dataclass(frozen=True)
class SpanEvent:
    """One completed span, flattened for export."""

    name: str
    start_us: float
    end_us: float
    depth: int
    parent: str | None
    attrs: tuple[tuple[str, object], ...] = ()

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "duration_us": self.duration_us,
            "depth": self.depth,
            "parent": self.parent,
            **dict(self.attrs),
        }


_NO_SPAN = nullcontext()


class SimTracer:
    """Collects nested spans against one simulated clock."""

    def __init__(self, clock: SimClock, enabled: bool = False):
        self._clock = clock
        self.enabled = enabled
        self._stack: list[str] = []
        self._events: list[SpanEvent] = []

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def span(self, name: str, **attrs: object) -> AbstractContextManager[None]:
        """Measure one region of simulated time; nests freely.  A
        disabled tracer hands out one shared no-op context: every query
        enters a span, so the off path builds nothing per call."""
        if not self.enabled:
            return _NO_SPAN
        return self._span(name, attrs)

    @contextmanager
    def _span(self, name: str, attrs: dict[str, object]) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        depth = len(self._stack)
        self._stack.append(name)
        start = self._clock.now_us()
        try:
            yield
        finally:
            self._stack.pop()
            self._events.append(
                SpanEvent(
                    name=name,
                    start_us=start,
                    end_us=self._clock.now_us(),
                    depth=depth,
                    parent=parent,
                    attrs=tuple(sorted(attrs.items())),
                )
            )

    # --------------------------------------------------------------- export

    def events(self) -> tuple[SpanEvent, ...]:
        return tuple(self._events)

    def export(self) -> list[dict]:
        """The flat event log (completion order) as plain dicts."""
        return [event.to_dict() for event in self._events]

    def total_us(self, name: str) -> float:
        return sum(e.duration_us for e in self._events if e.name == name)

    def clear(self) -> None:
        self._events.clear()
