"""Kernel profiler: attribution, merging, flamegraph export, determinism."""

import os

import pytest

from repro.obs.kernelprof import (
    FLAME_ROOT,
    SCHEDULER_SUBSYSTEM,
    KernelProfiler,
    _clear_active,
    active_kernel_profiler,
    configured_profiling,
    request_profiling,
)
from repro.sim.simulator import Simulator


class _Device:
    """Stand-in handler owner; module resolves to this test file."""

    def __init__(self):
        self.fired = 0

    def on_tick(self):
        self.fired += 1


def _free_function():
    pass


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def test_bound_methods_collapse_onto_one_accumulator():
    profiler = KernelProfiler()
    devices = [_Device() for _ in range(5)]
    for device in devices:
        profiler.note(device.on_tick, 1000)
    stats = profiler.stats()
    assert len(stats) == 1
    ((subsystem, handler),) = stats.keys()
    assert handler == "_Device.on_tick"
    (count, ns) = stats[(subsystem, handler)]
    assert count == 5
    assert ns == 5000


def test_plain_functions_keyed_directly():
    profiler = KernelProfiler()
    profiler.note(_free_function, 10)
    profiler.note(_free_function, 20)
    stats = profiler.stats()
    assert len(stats) == 1
    (count, ns) = next(iter(stats.values()))
    assert (count, ns) == (2, 30)


def test_subsystem_derived_from_repro_module():
    from repro.net.medium import BroadcastMedium

    profiler = KernelProfiler()
    profiler.note(BroadcastMedium._deliver_all, 100)
    ((subsystem, handler),) = profiler.stats().keys()
    assert subsystem == "net.medium"
    assert handler == "BroadcastMedium._deliver_all"


def test_events_and_kernel_ns_totals():
    profiler = KernelProfiler()
    profiler.note(_free_function, 10)
    device = _Device()
    profiler.note(device.on_tick, 30)
    assert profiler.events == 2
    assert profiler.kernel_ns == 40


# ----------------------------------------------------------------------
# Simulator hook
# ----------------------------------------------------------------------
def test_simulator_attributes_events_while_active():
    sim = Simulator()
    device = _Device()
    for i in range(7):
        sim.schedule(float(i), device.on_tick)
    profiler = KernelProfiler()
    with profiler.activate():
        sim.run()
    assert device.fired == 7
    # Queue dispatch time is attributed as its own subsystem but
    # excluded from the fired-event total (it would double-count).
    assert profiler.events == 7
    assert profiler.kernel_ns > 0
    stats = profiler.stats()
    assert {handler for _, handler in stats.keys()} == {
        "_Device.on_tick",
        "dispatch",
    }
    dispatch_count, dispatch_ns = stats[(SCHEDULER_SUBSYSTEM, "dispatch")]
    assert dispatch_count == 7  # one dispatch per fired event
    assert dispatch_ns > 0


def test_simulator_untouched_when_inactive():
    sim = Simulator()
    device = _Device()
    sim.schedule(0.0, device.on_tick)
    assert active_kernel_profiler() is None
    sim.run()
    assert device.fired == 1


def test_profiled_run_output_identical_to_unprofiled():
    # The determinism contract: profiling must not change event order,
    # virtual time, or any observable output of the simulation.
    def drive():
        from repro.experiments.figures.common import pdd_experiment

        outcome = pdd_experiment(seed=3, rows=4, cols=4, metadata_count=30)
        first = outcome.first
        return (
            first.recall,
            first.result.latency,
            first.result.rounds,
            outcome.total_overhead_bytes,
            outcome.scenario.sim.events_processed,
            outcome.scenario.sim.peak_queue_depth,
            outcome.scenario.sim.now,
        )

    plain = drive()
    with KernelProfiler().activate():
        profiled = drive()
    assert profiled == plain


# ----------------------------------------------------------------------
# Activation and merging
# ----------------------------------------------------------------------
def test_activate_nests_and_restores():
    outer = KernelProfiler()
    inner = KernelProfiler()
    with outer.activate():
        assert active_kernel_profiler() is outer
        with inner.activate():
            assert active_kernel_profiler() is inner
        assert active_kernel_profiler() is outer
    assert active_kernel_profiler() is None
    assert outer.wall_ns > 0
    assert inner.wall_ns > 0


def test_merge_folds_handler_stats_not_wall():
    outer = KernelProfiler()
    inner = KernelProfiler()
    inner.note(_free_function, 500)
    with outer.activate():
        pass
    wall_before = outer.wall_ns
    outer.merge(inner)
    assert outer.wall_ns == wall_before
    assert outer.kernel_ns == 500
    assert outer.events == 1


def test_snapshot_merge_roundtrip():
    source = KernelProfiler()
    source.note(_free_function, 100)
    device = _Device()
    source.note(device.on_tick, 200)
    snapshot = source.snapshot()
    # Snapshots must be JSON-able (they cross process boundaries).
    import json

    json.dumps(snapshot)
    target = KernelProfiler()
    target.merge_snapshot(snapshot)
    target.merge_snapshot(snapshot)
    assert target.stats() == {
        key: (count * 2, ns * 2) for key, (count, ns) in source.stats().items()
    }


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_summary_and_trial_summary_fields():
    profiler = KernelProfiler()
    with profiler.activate():
        profiler.note(_free_function, 1000)
    summary = profiler.summary()
    assert summary["events"] == 1
    assert summary["kernel_s"] == pytest.approx(1e-6)
    assert 0.0 < summary["kernel_share"] <= 1.0
    assert summary["hot_subsystem"]
    trial = profiler.trial_summary()
    assert trial["subsystem_ns"] == {summary["hot_subsystem"]: 1000}


def test_render_lists_subsystems_and_handlers():
    profiler = KernelProfiler()
    device = _Device()
    profiler.note(device.on_tick, 3000)
    profiler.note(_free_function, 1000)
    text = profiler.render(top=10)
    assert "by subsystem:" in text
    assert "_Device.on_tick" in text
    assert "_free_function" in text
    assert KernelProfiler().render() == "kernel profile: no events attributed"


def test_collapsed_stacks_format():
    profiler = KernelProfiler()
    profiler.note(_free_function, 5_000_000)
    profiler.wall_ns = 8_000_000  # 3ms of profiled wall outside handlers
    stacks = profiler.collapsed_stacks()
    lines = stacks.strip().splitlines()
    handler_lines = [l for l in lines if "_free_function" in l]
    assert len(handler_lines) == 1
    frames, value = handler_lines[0].rsplit(" ", 1)
    assert frames.startswith(f"{FLAME_ROOT};")
    assert frames.count(";") == 2  # root;subsystem;handler
    assert int(value) == 5000  # microseconds
    # Idle time outside handlers gets its own frame so widths sum to wall.
    assert any("(outside-handlers)" in l for l in lines)


def test_write_flamegraph(tmp_path):
    profiler = KernelProfiler()
    profiler.note(_free_function, 2000)
    out = tmp_path / "flame.txt"
    profiler.write_flamegraph(str(out))
    assert "_free_function" in out.read_text()


# ----------------------------------------------------------------------
# Process-wide configuration
# ----------------------------------------------------------------------
def test_configured_profiling_env_and_request(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    _clear_active()
    request_profiling(False)
    assert not configured_profiling()
    monkeypatch.setenv("REPRO_PROFILE", "1")
    assert configured_profiling()
    monkeypatch.delenv("REPRO_PROFILE")
    request_profiling(True)
    assert configured_profiling()
    request_profiling(False)
    assert not configured_profiling()
    with KernelProfiler().activate():
        assert configured_profiling()
    assert not configured_profiling()
