"""Run profiler: the simulator hook, activation, labels, merging, determinism."""

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


def _ticking_sim(ticks):
    sim = Simulator()
    for i in range(ticks):
        sim.schedule((i + 1) / 10, lambda: None)
    return sim


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
    assert record.label == "run"
    assert record.events == 7
    assert record.sim_time_s == 6.0
    assert record.peak_queue_depth == 7


def test_simulator_run_records_profile():
    with ObsConfig(metrics=True).activate() as obs:
        sim = _ticking_sim(3)
        with obs.profiler.labelled("trial"):
            sim.run()
    (record,) = obs.profiler.records
    assert record.label == "trial"
    assert record.events == 3
    assert record.sim_time_s == 0.3
    assert record.peak_queue_depth >= 1


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
# Activation, labels, registries
# ----------------------------------------------------------------------
def test_no_profiler_active_by_default():
    assert active("metrics") is None


def test_activate_nests_and_restores():
    with ObsConfig(metrics=True).activate() as outer:
        assert active("metrics") is outer
        with ObsConfig(metrics=True).activate() as inner:
            assert active("metrics") is inner
            assert inner.profiler is not outer.profiler
        assert active("metrics") is outer
    assert active("metrics") is None


def test_activate_scopes_and_restores():
    """Runs report to the top activation's profiler only."""
    with ObsConfig(metrics=True).activate() as outer:
        _ticking_sim(1).run()
        with ObsConfig(metrics=True).activate() as inner:
            _ticking_sim(2).run()
        _ticking_sim(3).run()
    assert [r.events for r in outer.profiler.records] == [1, 3]
    assert [r.events for r in inner.profiler.records] == [2]


def test_labels_nest():
    """An inner label replaces the outer one and restores it on exit."""
    with ObsConfig(metrics=True).activate() as obs:
        profiler = obs.profiler
        with profiler.labelled("fig4"):
            with profiler.labelled("seed 1"):
                _ticking_sim(1).run()
            _ticking_sim(1).run()
        _ticking_sim(1).run()
    assert [r.label for r in profiler.records] == ["seed 1", "fig4", "run"]


def test_profiler_merges_registries_of_simulators_built_under_it():
    before = Simulator()  # built outside: not watched
    with ObsConfig(metrics=True).activate() as obs:
        first, second = Simulator(), Simulator()
    after = Simulator()  # built after: not watched
    for sim, amount in ((before, 100), (first, 1), (second, 2), (after, 1000)):
        sim.metrics.counter("x").inc(amount)
    assert obs.profiler.registry().counter("x").value == 3


def test_run_only_profiler_does_not_request_handler_profiling():
    """Profiling shapes no trial result, so it leaves the campaign
    store's observability tags (and trial keys) untouched."""
    from repro.experiments.store import observability_tags

    assert observability_tags() == ()
    with ObsConfig(metrics=True).activate():
        assert observability_tags() == ()


# ----------------------------------------------------------------------
# Reports and merging (worker -> parent)
# ----------------------------------------------------------------------
def test_summary_and_render():
    profiler = KernelProfiler()
    assert "no simulator runs" in profiler.render_runs()
    profiler.record_run(events=100, sim_time_s=5.0, peak_queue_depth=7)
    profiler.record_run(events=50, sim_time_s=3.0, peak_queue_depth=9)
    assert profiler.runs_summary() == {
        "runs": 2,
        "events": 150,
        "peak_queue_depth": 9,
    }
    text = profiler.render_runs()
    assert "TOTAL" in text
    # Only deterministic columns: the same runs always render the same.
    assert "wall" not in text
    assert "ev/s" not in text


def test_snapshot_merge_roundtrip():
    source = KernelProfiler()
    source.record_run(events=100, sim_time_s=2.0, peak_queue_depth=4)
    source.record_run(events=40, sim_time_s=1.0, peak_queue_depth=9)
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


def test_extend_folds_foreign_records():
    """A worker drains its profiler after each trial; the parent folds
    the snapshot's run records and registry into its own profiler."""
    with ObsConfig(metrics=True).activate() as worker:
        sim = _ticking_sim(1)
        sim.metrics.counter("net.frames_sent").inc(5)
        with worker.profiler.labelled("worker trial"):
            sim.run()
        records = list(worker.profiler.records)
        snapshot = worker.profiler.drain()
    # Drained: the next trial starts from nothing.
    assert worker.profiler.records == []
    assert worker.profiler.registry().snapshot()["counters"] == {}
    parent = KernelProfiler()
    parent.merge_snapshot(snapshot)
    assert [r.label for r in parent.records] == ["worker trial"]
    assert parent.records == records
    assert parent.registry().counter("net.frames_sent").value == 5
