"""Kernel-profile plumbing through run_sweep: run records and merging.

Trial functions live at module level so forked workers can resolve them
by reference; each runs a tiny real simulation so there are events to
record.
"""

import multiprocessing

import pytest

from repro.experiments.runner import run_sweep
from repro.obs.kernelprof import KernelProfiler
from repro.sim.simulator import Simulator


def _sim_trial(point, seed):
    sim = Simulator()
    state = {"fired": 0}

    def tick():
        state["fired"] += 1

    for i in range(10 + seed):
        sim.schedule(float(i), tick)
    sim.run()
    return {"fired": state["fired"]}


def _sweep(seeds, jobs):
    return run_sweep(
        _sim_trial, [{}], seeds=seeds, jobs=jobs, label_fn=lambda point: "sim"
    )


def _results(sweep):
    return [sweep_point.results for sweep_point in sweep]


def _run_events(profiler):
    return {record.label: record.events for record in profiler.records}


def test_unprofiled_trials_carry_no_profile_extras():
    sweep = _sweep([1, 2], jobs=1)
    assert _results(sweep) == [({"fired": 11}, {"fired": 12})]


def test_serial_trials_attach_profile_and_fold_into_outer():
    outer = KernelProfiler()
    with outer.activate():
        sweep = _sweep([1, 2], jobs=1)
    # Profiling records runs; it adds nothing to the trial values.
    assert _results(sweep) == [({"fired": 11}, {"fired": 12})]
    # Each trial's run is recorded on the CLI-level profiler, by label.
    assert _run_events(outer) == {"sim seed 1": 10 + 1, "sim seed 2": 10 + 2}


def test_parallel_trials_profile_and_merge_snapshots():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    outer = KernelProfiler()
    with outer.activate():
        sweep = _sweep([1, 2, 3], jobs=2)
    assert _results(sweep) == [({"fired": 11}, {"fired": 12}, {"fired": 13})]
    # Worker snapshots merged into the parent's active profiler.
    assert _run_events(outer) == {
        "sim seed 1": 10 + 1,
        "sim seed 2": 10 + 2,
        "sim seed 3": 10 + 3,
    }


def test_parallel_without_parent_profiler_stays_unprofiled():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    sweep = _sweep([1, 2], jobs=2)
    assert _results(sweep) == [({"fired": 11}, {"fired": 12})]


def test_serial_and_parallel_profiles_agree_on_events():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    serial_profiler = KernelProfiler()
    with serial_profiler.activate():
        serial = _sweep([1, 2], jobs=1)
    parallel_profiler = KernelProfiler()
    with parallel_profiler.activate():
        parallel = _sweep([1, 2], jobs=2)
    assert _run_events(serial_profiler) == _run_events(parallel_profiler)
    # The deterministic trial values are bit-identical either way.
    assert serial == parallel
