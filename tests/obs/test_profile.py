"""Unit tests for the kernel profiler's per-run records."""

from repro.obs.kernelprof import (
    KernelProfiler,
    RunRecord,
    active_kernel_profiler,
    label,
)
from repro.sim.simulator import Simulator


def test_no_profiler_active_by_default():
    assert active_kernel_profiler() is None


def test_activate_scopes_and_restores():
    outer = KernelProfiler()
    inner = KernelProfiler()
    with outer.activate():
        assert active_kernel_profiler() is outer
        with inner.activate():
            assert active_kernel_profiler() is inner
        assert active_kernel_profiler() is outer
    assert active_kernel_profiler() is None


def test_simulator_run_records_profile():
    profiler = KernelProfiler()
    with profiler.activate():
        sim = Simulator()
        for delay in (0.1, 0.2, 0.3):
            sim.schedule(delay, lambda: None)
        with label("trial"):
            sim.run()
    assert len(profiler.records) == 1
    record = profiler.records[0]
    assert record.label == "trial"
    assert record.events == 3
    assert record.sim_time_s == 0.3
    assert record.peak_queue_depth >= 1
    assert record.wall_s >= 0.0


def test_run_only_profiler_does_not_request_handler_profiling():
    """An active profiler shapes no trial result, so it leaves the
    campaign store's observability tags (and trial keys) untouched."""
    from repro.experiments.store import observability_tags

    assert observability_tags() == ()
    with KernelProfiler().activate():
        assert observability_tags() == ()


def test_labels_nest():
    profiler = KernelProfiler()
    with profiler.activate(), label("fig4"), label("seed 1"):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run()
    assert profiler.records[0].label == "fig4 / seed 1"


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
    """Worker processes return their records in a snapshot; the parent
    folds them into its own profiler with merge_snapshot()."""
    worker = KernelProfiler()
    with worker.activate():
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        with label("worker trial"):
            sim.run()
    parent = KernelProfiler()
    with parent.activate():
        pass
    parent.merge_snapshot(worker.snapshot())
    assert [r.label for r in parent.records] == ["worker trial"]
    assert parent.records[0].events == 1
    assert parent.records == worker.records
