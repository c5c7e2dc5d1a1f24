"""Kernel-profile plumbing through run_trials: run records and merging.

Trial functions live at module level so forked workers can resolve them
by reference; each runs a tiny real simulation so there are events to
record.
"""

import multiprocessing

import pytest

from repro.experiments.metrics import TrialMetrics
from repro.experiments.runner import run_trials
from repro.obs.kernelprof import KernelProfiler
from repro.sim.simulator import Simulator

#: The columns every store-less, untraced, unrecorded campaign row has.
_BASE_COLUMNS = {
    "recall",
    "recall_std",
    "latency_s",
    "latency_std",
    "overhead_mb",
    "overhead_mb_std",
    "rounds",
}


def _sim_trial(seed):
    sim = Simulator()
    state = {"fired": 0}

    def tick():
        state["fired"] += 1

    for i in range(10 + seed):
        sim.schedule(float(i), tick)
    sim.run()
    return TrialMetrics(
        recall=1.0, latency_s=float(seed), overhead_bytes=100 * seed
    )


def _run_events(profiler):
    return {record.label: record.events for record in profiler.records}


def test_unprofiled_trials_carry_no_profile_extras():
    agg = run_trials(_sim_trial, seeds=[1, 2], jobs=1)
    assert set(agg.as_row()) == _BASE_COLUMNS


def test_serial_trials_attach_profile_and_fold_into_outer():
    outer = KernelProfiler()
    with outer.activate():
        agg = run_trials(_sim_trial, seeds=[1, 2], jobs=1)
    # Profiling records runs; it adds no columns to the table.
    assert set(agg.as_row()) == _BASE_COLUMNS
    # Each trial's run is recorded on the CLI-level profiler, by seed.
    assert _run_events(outer) == {"seed 1": 10 + 1, "seed 2": 10 + 2}


def test_parallel_trials_profile_and_merge_snapshots():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    outer = KernelProfiler()
    with outer.activate():
        agg = run_trials(_sim_trial, seeds=[1, 2, 3], jobs=2)
    assert set(agg.as_row()) == _BASE_COLUMNS
    # Worker snapshots merged into the parent's active profiler.
    assert _run_events(outer) == {
        "seed 1": 10 + 1,
        "seed 2": 10 + 2,
        "seed 3": 10 + 3,
    }


def test_parallel_without_parent_profiler_stays_unprofiled():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    agg = run_trials(_sim_trial, seeds=[1, 2], jobs=2)
    assert set(agg.as_row()) == _BASE_COLUMNS


def test_serial_and_parallel_profiles_agree_on_events():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    serial_profiler = KernelProfiler()
    with serial_profiler.activate():
        serial = run_trials(_sim_trial, seeds=[1, 2], jobs=1)
    parallel_profiler = KernelProfiler()
    with parallel_profiler.activate():
        parallel = run_trials(_sim_trial, seeds=[1, 2], jobs=2)
    assert _run_events(serial_profiler) == _run_events(parallel_profiler)
    # The deterministic trial statistics are bit-identical either way.
    assert serial.as_row() == parallel.as_row()
