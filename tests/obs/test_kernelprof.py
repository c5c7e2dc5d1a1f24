"""Kernel profiler: the simulator hook, merging, determinism."""

import json

from repro.obs.config import ObsConfig, active
from repro.obs.kernelprof import KernelProfiler
from repro.sim.simulator import Simulator


class _Device:
    """Stand-in handler owner."""

    def __init__(self):
        self.fired = 0

    def on_tick(self):
        self.fired += 1


# ----------------------------------------------------------------------
# Simulator hook
# ----------------------------------------------------------------------
def test_simulator_attributes_events_while_active():
    sim = Simulator()
    device = _Device()
    for i in range(7):
        sim.schedule(float(i), device.on_tick)
    with ObsConfig(metrics=True).activate() as obs:
        sim.run()
    assert device.fired == 7
    # The run's events land on the active profiler as one run record.
    (record,) = obs.profiler.records
    assert record.events == 7
    assert record.sim_time_s == 6.0
    assert record.wall_s >= 0.0


def test_simulator_untouched_when_inactive():
    sim = Simulator()
    device = _Device()
    sim.schedule(0.0, device.on_tick)
    assert active("metrics") is None
    sim.run()
    assert device.fired == 1
    # An activation with metrics off records nothing either.
    sim.schedule(1.0, device.on_tick)
    with ObsConfig().activate() as obs:
        assert active("metrics") is None
        sim.run()
    assert device.fired == 2
    assert obs.profiler.records == []


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
    with ObsConfig(metrics=True).activate():
        profiled = drive()
    assert profiled == plain


# ----------------------------------------------------------------------
# Activation and merging
# ----------------------------------------------------------------------
def test_activate_nests_and_restores():
    with ObsConfig(metrics=True).activate() as outer:
        assert active("metrics") is outer
        with ObsConfig(metrics=True).activate() as inner:
            assert active("metrics") is inner
            assert inner.profiler is not outer.profiler
        assert active("metrics") is outer
    assert active("metrics") is None


def test_snapshot_merge_roundtrip():
    source = KernelProfiler()
    source.record_run(wall_s=0.5, events=100, sim_time_s=2.0, peak_queue_depth=4)
    source.record_run(wall_s=0.25, events=40, sim_time_s=1.0, peak_queue_depth=9)
    registry = Simulator().metrics
    registry.histogram("size", buckets=(64.0, 4096.0)).observe(100.0)
    source.watch(registry)
    snapshot = source.snapshot()
    # Snapshots must be JSON-able (they cross process boundaries).
    json.dumps(snapshot)
    target = KernelProfiler()
    target.merge_snapshot(snapshot)
    target.merge_snapshot(snapshot)
    assert target.records == source.records * 2
    assert target.runs_summary()["events"] == 280
    merged = target.registry().histogram("size", buckets=(64.0, 4096.0))
    assert merged.counts == [0, 2, 0]
