"""Unit tests for the trace bus and its sinks."""

import pytest

from repro.obs.trace import (
    JsonlSink,
    ListSink,
    RingBufferSink,
    TraceBus,
    TraceEvent,
    read_jsonl,
)
from repro.sim.simulator import Simulator


def test_events_carry_virtual_time_in_order():
    sim = Simulator()
    sink = sim.trace.subscribe(ListSink())
    for delay in (0.5, 0.1, 0.9):
        sim.schedule(delay, lambda d=delay: sim.trace.emit("tick", delay=d))
    sim.run()
    ticks = [e for e in sink.events if e.kind == "tick"]
    assert [e.time for e in ticks] == [0.1, 0.5, 0.9]
    assert [e.fields["delay"] for e in ticks] == [0.1, 0.5, 0.9]
    # every event is stamped with this bus's run id
    assert {e.run for e in sink.events} == {sim.trace.run_id}


def test_disabled_bus_emits_nothing():
    sim = Simulator()
    assert sim.trace.enabled is False
    sim.schedule(0.1, lambda: sim.trace.emit("tick"))
    sim.run()
    # emit() without sinks builds no event but still tallies the kind, so
    # unguarded emission sites stay countable at near-zero cost.
    assert sim.trace.emit("tick") is None
    assert sim.trace.counts["tick"] == 2
    # guarded sites never called emit(), so run() itself tallied nothing
    assert "sim_run_end" not in sim.trace.counts


def test_unsubscribe_disables_bus():
    bus = TraceBus()
    sink = bus.subscribe(ListSink())
    assert bus.enabled is True
    bus.unsubscribe(sink)
    assert bus.enabled is False
    assert bus.emit("tick") is None
    assert bus.counts["tick"] == 1
    assert not sink.events


def test_sim_run_end_event_reports_processed_count():
    sim = Simulator()
    sink = sim.trace.subscribe(ListSink())
    for delay in (0.1, 0.2, 0.3):
        sim.schedule(delay, lambda: None)
    sim.run()
    ends = [e for e in sink.events if e.kind == "sim_run_end"]
    assert len(ends) == 1
    assert ends[0].fields["processed"] == 3
    assert ends[0].fields["pending"] == 0


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    clock_value = [0.0]
    bus = TraceBus(clock=lambda: clock_value[0], run_id=7)
    with JsonlSink(str(path)) as sink:
        bus.subscribe(sink)
        bus.emit("frame_sent", node=3, size=100, frame_kind="query")
        clock_value[0] = 1.5
        bus.emit("frame_lost", node=4, reason="collision")
    events = read_jsonl(str(path))
    assert events == [
        {"t": 0.0, "kind": "frame_sent", "run": 7, "node": 3, "size": 100,
         "frame_kind": "query"},
        {"t": 1.5, "kind": "frame_lost", "run": 7, "node": 4,
         "reason": "collision"},
    ]


def test_jsonl_sink_creates_file_even_without_events(tmp_path):
    path = tmp_path / "empty.jsonl"
    JsonlSink(str(path)).close()
    assert path.exists()
    assert read_jsonl(str(path)) == []


def test_ring_buffer_keeps_most_recent():
    bus = TraceBus(clock=lambda: 0.0)
    sink = bus.subscribe(RingBufferSink(capacity=3))
    for i in range(10):
        bus.emit("tick", i=i)
    assert sink.seen == 10
    assert sink.dropped == 7
    assert [e.fields["i"] for e in sink.events] == [7, 8, 9]


def test_config_trace_sink_attaches_to_new_simulators(tmp_path):
    from repro.obs.config import ObsConfig

    path = tmp_path / "t.jsonl"
    with ObsConfig(trace=str(path)).activate():
        sim = Simulator()
        assert sim.trace.enabled is True
        sim.schedule(0.1, lambda: sim.trace.emit("tick"))
        sim.run()
    assert any(e["kind"] == "tick" for e in read_jsonl(str(path)))
    # simulators created after the scope closes are not attached
    assert Simulator().trace.enabled is False


def test_run_ids_distinguish_buses():
    assert Simulator().trace.run_id != Simulator().trace.run_id


def test_sinkless_emit_never_builds_an_event():
    # The short-circuit must not even read the clock: a bus whose clock
    # raises proves emit() returns before any event construction.
    def exploding_clock():
        raise AssertionError("sink-less emit must not read the clock")

    bus = TraceBus(clock=exploding_clock)
    assert bus.emit("tick", payload="x" * 64) is None
    assert bus.counts["tick"] == 1
    bus.subscribe(ListSink())
    with pytest.raises(AssertionError):
        bus.emit("tick")


def test_sinkless_emit_micro_benchmark():
    """Guard the satellite perf claim: the sink-less fast path must not be
    slower than full event construction + sink fan-out (best of 3 each,
    so scheduler noise cannot flake the comparison)."""
    import timeit

    iterations = 20_000
    quiet = TraceBus(clock=lambda: 0.0)
    busy = TraceBus(clock=lambda: 0.0)
    busy.subscribe(ListSink())

    def run(bus):
        return min(
            timeit.repeat(
                lambda: bus.emit("tick", node=1, size=100),
                repeat=3,
                number=iterations,
            )
        )

    fast = run(quiet)
    slow = run(busy)
    assert fast <= slow, (
        f"sink-less emit ({fast:.4f}s/{iterations}) must not be slower "
        f"than sink fan-out ({slow:.4f}s/{iterations})"
    )


def test_emission_counts_tally_per_kind():
    bus = TraceBus()
    bus.subscribe(ListSink())
    bus.emit("a")
    bus.emit("a")
    bus.emit("b")
    assert bus.counts == {"a": 2, "b": 1}


# ----------------------------------------------------------------------
# JsonlSink durability (flush + fsync on exit, fork safety)
# ----------------------------------------------------------------------
def test_jsonl_sink_close_flushes_and_is_idempotent(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(str(path))
    sink.handle(TraceEvent(1.0, "x", None, 1, {}))
    sink.close()
    sink.close()  # second close is a no-op
    assert read_jsonl(str(path)) == [{"t": 1.0, "kind": "x", "run": 1}]
    # Post-close events are dropped silently, not errors.
    sink.handle(TraceEvent(2.0, "y", None, 1, {}))
    assert read_jsonl(str(path)) == [{"t": 1.0, "kind": "x", "run": 1}]


def test_jsonl_sink_context_manager_closes(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlSink(str(path)) as sink:
        sink.handle(TraceEvent(1.0, "x", None, 1, {}))
    assert sink._file is None
    assert read_jsonl(str(path))


def test_jsonl_sink_close_in_foreign_pid_keeps_file(tmp_path):
    # A sink inherited across fork shares its buffer with the parent:
    # closing in the child must neither flush nor drop the reference
    # (dropping it would let GC close — and flush — the parent's bytes).
    import os as _os

    sink = JsonlSink(str(tmp_path / "t.jsonl"))
    sink._pid = _os.getpid() + 1
    sink.close()
    assert sink._file is not None
    sink.flush()  # pid-guarded too: must not touch the file
    sink._pid = _os.getpid()
    sink.close()


def test_jsonl_sink_registers_atexit_close(tmp_path):
    import atexit

    unregistered = []
    original = atexit.unregister

    def spy(func):
        unregistered.append(func)
        return original(func)

    atexit.unregister = spy
    try:
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
    finally:
        atexit.unregister = original
    # close() tears down its own atexit hook (no leak across many runs).
    assert sink.close in unregistered
