"""The run profiler: per-run records, registries, activation, merging."""

from repro.obs.config import ObsConfig, active
from repro.obs.kernelprof import KernelProfiler, RunRecord
from repro.sim.simulator import Simulator


def _ticking_sim(ticks):
    sim = Simulator()
    for i in range(ticks):
        sim.schedule((i + 1) / 10, lambda: None)
    return sim


def test_no_profiler_active_by_default():
    assert active("metrics") is None


def test_activate_scopes_and_restores():
    """Runs report to the top activation's profiler only."""
    with ObsConfig(metrics=True).activate() as outer:
        _ticking_sim(1).run()
        with ObsConfig(metrics=True).activate() as inner:
            assert active("metrics") is inner
            _ticking_sim(2).run()
        _ticking_sim(3).run()
    assert active("metrics") is None
    assert [r.events for r in outer.profiler.records] == [1, 3]
    assert [r.events for r in inner.profiler.records] == [2]


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
    assert record.wall_s >= 0.0


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


def test_summary_and_render():
    profiler = KernelProfiler()
    assert "no simulator runs" in profiler.render_runs()
    profiler.record_run(wall_s=2.0, events=100, sim_time_s=5.0, peak_queue_depth=7)
    profiler.record_run(wall_s=1.0, events=50, sim_time_s=3.0, peak_queue_depth=9)
    totals = profiler.runs_summary()
    assert totals["runs"] == 2
    assert totals["wall_s"] == 3.0
    assert totals["events"] == 150
    assert totals["events_per_s"] == 50.0
    assert totals["peak_queue_depth"] == 9
    text = profiler.render_runs()
    assert "TOTAL" in text
    assert "ev/s" in text


def test_events_per_s_handles_zero_wall():
    record = RunRecord(
        label="x", wall_s=0.0, events=10, sim_time_s=1.0, peak_queue_depth=0
    )
    assert record.events_per_s == 0.0


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

