"""SimTracer: nesting, disabled no-op, export format."""

import pytest

from repro.common import SimClock
from repro.obs import SimTracer


def test_disabled_tracer_records_nothing_and_charges_no_time():
    clock = SimClock()
    tracer = SimTracer(clock)  # disabled by default
    before = clock.now_us()
    with tracer.span("engine.query"):
        with tracer.span("engine.sync"):
            pass
    assert clock.now_us() == before  # spans only read the clock
    assert tracer.events() == ()


def test_disabled_span_lets_an_exception_through():
    tracer = SimTracer(SimClock())
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.span("engine.query"):
            raise RuntimeError("boom")
    assert tracer.events() == ()


def test_enabled_spans_never_advance_the_clock():
    clock = SimClock()
    tracer = SimTracer(clock, enabled=True)
    before = clock.now_us()
    with tracer.span("engine.query"):
        pass
    assert clock.now_us() == before


def test_span_measures_simulated_time():
    clock = SimClock()
    tracer = SimTracer(clock, enabled=True)
    with tracer.span("engine.sync"):
        clock.advance(125.0)
    (event,) = tracer.events()
    assert event.name == "engine.sync"
    assert event.duration_us == 125.0


def test_spans_nest_with_depth_and_parent():
    clock = SimClock()
    tracer = SimTracer(clock, enabled=True)
    with tracer.span("engine.query"):
        clock.advance(10.0)
        with tracer.span("engine.sync"):
            clock.advance(5.0)
        clock.advance(1.0)
    inner, outer = tracer.events()  # completion order: inner closes first
    assert inner.name == "engine.sync"
    assert inner.depth == 1
    assert inner.parent == "engine.query"
    assert outer.name == "engine.query"
    assert outer.depth == 0
    assert outer.parent is None
    # The outer span covers the inner one.
    assert outer.start_us <= inner.start_us
    assert outer.end_us >= inner.end_us
    assert outer.duration_us == 16.0


def test_enable_disable_mid_run():
    clock = SimClock()
    tracer = SimTracer(clock)
    with tracer.span("skipped"):
        clock.advance(1.0)
    tracer.enable()
    with tracer.span("kept"):
        clock.advance(1.0)
    tracer.disable()
    with tracer.span("skipped.again"):
        clock.advance(1.0)
    assert [e.name for e in tracer.events()] == ["kept"]


def test_export_and_totals():
    clock = SimClock()
    tracer = SimTracer(clock, enabled=True)
    for _ in range(3):
        with tracer.span("engine.sync", engine="a"):
            clock.advance(10.0)
    assert tracer.total_us("engine.sync") == 30.0
    exported = tracer.export()
    assert len(exported) == 3
    assert exported[0]["name"] == "engine.sync"
    assert exported[0]["duration_us"] == 10.0
    assert exported[0]["engine"] == "a"
    tracer.clear()
    assert tracer.events() == ()


def test_exception_inside_span_still_records_it():
    clock = SimClock()
    tracer = SimTracer(clock, enabled=True)
    try:
        with tracer.span("engine.query"):
            clock.advance(7.0)
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    (event,) = tracer.events()
    assert event.duration_us == 7.0
    # The stack unwound: a new span starts back at depth 0.
    with tracer.span("engine.sync"):
        pass
    assert tracer.events()[-1].depth == 0


def test_engine_sync_emits_span_when_tracing_enabled():
    """The engine template method wraps _sync in a span charged to the
    engine's own simulated clock."""
    from repro.engines import RowIMCSEngine
    from repro.common import Column, DataType, Schema

    engine = RowIMCSEngine()
    schema = Schema(
        "t", [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)], ["id"]
    )
    engine.create_table(schema)
    engine.tracer.enable()
    with engine.session() as s:
        s.insert("t", (1, 1.0))
        s.commit()
    engine.sync()
    names = [e.name for e in engine.tracer.events()]
    assert "engine.sync" in names
