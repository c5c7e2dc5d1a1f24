"""Kernel-profile plumbing through run_sweep: run records and merging.

Trial functions live at module level so forked workers can resolve them
by reference; each runs a tiny real simulation so there are events to
record.
"""

import multiprocessing

import pytest

from repro.experiments.runner import run_sweep
from repro.obs.config import ObsConfig
from repro.sim.simulator import Simulator


def _sim_trial(point, seed):
    sim = Simulator()
    state = {"fired": 0}

    def tick():
        state["fired"] += 1

    for i in range(10 + seed):
        sim.schedule(float(i), tick)
    sim.metrics.counter("ticks").inc(10 + seed)
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


def _ticks(profiler):
    return profiler.registry().counter("ticks").value


def test_unprofiled_trials_carry_no_profile_extras():
    sweep = _sweep([1, 2], jobs=1)
    assert _results(sweep) == [({"fired": 11}, {"fired": 12})]


def test_serial_trials_attach_profile_and_fold_into_outer():
    with ObsConfig(metrics=True).activate() as obs:
        sweep = _sweep([1, 2], jobs=1)
    # Profiling records runs; it adds nothing to the trial values.
    assert _results(sweep) == [({"fired": 11}, {"fired": 12})]
    # Each trial's run is recorded on the CLI-level profiler, by label.
    assert _run_events(obs.profiler) == {
        "sim seed 1": 10 + 1,
        "sim seed 2": 10 + 2,
    }
    assert _ticks(obs.profiler) == 11 + 12


def test_parallel_trials_profile_and_merge_snapshots():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    with ObsConfig(metrics=True).activate() as obs:
        sweep = _sweep([1, 2, 3], jobs=2)
    assert _results(sweep) == [({"fired": 11}, {"fired": 12}, {"fired": 13})]
    # Worker snapshots merged into the parent's active profiler.
    assert _run_events(obs.profiler) == {
        "sim seed 1": 10 + 1,
        "sim seed 2": 10 + 2,
        "sim seed 3": 10 + 3,
    }
    # Each worker drains per trial, so no registry is counted twice.
    assert _ticks(obs.profiler) == 11 + 12 + 13


def test_parallel_without_parent_profiler_stays_unprofiled():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    sweep = _sweep([1, 2], jobs=2)
    assert _results(sweep) == [({"fired": 11}, {"fired": 12})]


def test_serial_and_parallel_profiles_agree_on_events():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    with ObsConfig(metrics=True).activate() as serial_obs:
        serial = _sweep([1, 2], jobs=1)
    with ObsConfig(metrics=True).activate() as parallel_obs:
        parallel = _sweep([1, 2], jobs=2)
    assert _run_events(serial_obs.profiler) == _run_events(parallel_obs.profiler)
    assert (
        serial_obs.profiler.registry().snapshot()
        == parallel_obs.profiler.registry().snapshot()
    )
    # The deterministic trial values are bit-identical either way.
    assert serial == parallel
