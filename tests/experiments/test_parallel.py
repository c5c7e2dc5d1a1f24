"""Parallel campaign tests: determinism, the failure rule, observability.

The trial functions live at module level so forked workers can resolve
them by reference.  Each is deterministic in its seed, which is what
makes the bit-identity assertions meaningful.  Most campaigns here are
one-point sweeps (:func:`_one_point`), so results read per seed.
"""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_sweep
from repro.experiments.store import CampaignStore
from repro.obs import trace as obs_trace
from repro.obs.config import ObsConfig
from repro.obs.durable import resolve_trace_paths
from repro.sim.simulator import Simulator

_NEEDS_FORK = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="worker shards need fork",
)


def _one_point(trial, seeds, **kwargs):
    """Run ``trial`` over ``seeds`` as a one-point sweep; its SweepPoint."""
    (point,) = run_sweep(trial, [{"base": 0}], seeds=seeds, **kwargs)
    return point


def _ok_trial(point, seed):
    return {"recall": 1.0, "latency_s": float(seed), "overhead_bytes": 1000 * seed}


def _raises_on_seed_3(point, seed):
    if seed == 3:
        raise RuntimeError("injected failure")
    return _ok_trial(point, seed)


def _dies_on_seed_2(point, seed):
    if seed == 2:
        # Count executions in a file: a retry would append a second line.
        with open(os.environ["REPRO_TEST_DEATH_LOG"], "a") as log:
            log.write("died\n")
        os._exit(17)  # hard worker death, not an exception
    return _ok_trial(point, seed)


def _waits_for_earlier_entries(point, seed):
    """The last seed waits (up to 10 s) until the store holds an entry
    for every earlier seed, and reports how many it saw."""
    if seed < 3:
        return {"seed": seed, "seen": 0}
    store = CampaignStore(point["store"])
    deadline = time.monotonic() + 10.0
    seen = 0
    while time.monotonic() < deadline:
        seen = store.status()["entries"]
        if seen == 2:
            break
        time.sleep(0.02)
    return {"seed": seed, "seen": seen}


def _traced_trial(point, seed):
    # A simulator subscribes the active config's trace sink of *this*
    # process — in a worker, its own JSONL shard.
    Simulator().trace.emit("trial.ran", seed=seed)
    return _ok_trial(point, seed)


def _sweep_trial(point, seed):
    return {"score": point["base"] * 100 + seed}


def test_parallel_matches_serial_aggregate():
    """Same seeds, any worker count → the same SweepPoint."""
    serial = _one_point(_ok_trial, [1, 2, 3, 4, 5], jobs=1)
    parallel = _one_point(_ok_trial, [1, 2, 3, 4, 5], jobs=4)
    assert parallel == serial
    assert serial.seeds == (1, 2, 3, 4, 5)


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_trial_stops_the_sweep_at_any_jobs(jobs):
    """One failure rule: the trial's own exception escapes run_sweep."""
    with pytest.raises(RuntimeError, match="injected failure"):
        _one_point(_raises_on_seed_3, [1, 2, 3, 4], jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_campaign_keeps_finished_trials_in_the_store(tmp_path, jobs):
    """The trials before the failing one are stored, so re-running the
    same command resumes from them."""
    store = CampaignStore(str(tmp_path))
    with pytest.raises(RuntimeError, match="injected failure"):
        _one_point(_raises_on_seed_3, [1, 2, 3], jobs=jobs, store=store)
    assert store.status()["entries"] == 2
    again = _one_point(_raises_on_seed_3, [1, 2], jobs=jobs, store=store)
    assert (again.cache_hits, again.executed) == (2, 0)


def test_worker_death_fails_the_sweep_without_retry(tmp_path, monkeypatch):
    log = tmp_path / "deaths"
    monkeypatch.setenv("REPRO_TEST_DEATH_LOG", str(log))
    with pytest.raises(BrokenProcessPool):
        _one_point(_dies_on_seed_2, [1, 2, 3], jobs=2)
    assert log.read_text().splitlines() == ["died"]


def test_store_campaign_publishes_entries_before_its_last_trial_ends(tmp_path):
    """Each finished trial is stored as soon as every earlier one is, not
    when the pool drains: the last trial sees both earlier entries."""
    store = str(tmp_path / "store")
    (sweep_point,) = run_sweep(
        _waits_for_earlier_entries,
        [{"store": store}],
        seeds=[1, 2, 3],
        jobs=2,
        store=store,
    )
    assert sweep_point.results[-1] == {"seed": 3, "seen": 2}


def test_run_sweep_parallel_matches_serial():
    points = [{"base": base} for base in (1, 2, 3)]
    serial = run_sweep(_sweep_trial, points, seeds=[1, 2], jobs=1)
    parallel = run_sweep(_sweep_trial, points, seeds=[1, 2], jobs=3)
    assert [sp.results for sp in parallel] == [sp.results for sp in serial]
    assert [sp.point for sp in parallel] == points


@_NEEDS_FORK
def test_parallel_trace_shards(tmp_path):
    """Workers write per-worker JSONL shards next to the parent file."""
    path = str(tmp_path / "trace.jsonl")
    with ObsConfig(trace=path).activate():
        _one_point(_traced_trial, [1, 2, 3, 4], jobs=2)
    shards = sorted(p for p in os.listdir(tmp_path) if p != "trace.jsonl")
    assert shards  # at least one worker wrote a shard
    assert all(p.startswith("trace.") and p.endswith(".jsonl") for p in shards)
    events = []
    for shard in shards:
        events += obs_trace.read_jsonl(str(tmp_path / shard))
    seeds = sorted(e["seed"] for e in events if e["kind"] == "trial.ran")
    assert seeds == [1, 2, 3, 4]


def _traced_seeds(path):
    """Seeds of every ``trial.ran`` event in ``path`` and its shards."""
    return sorted(
        event["seed"]
        for file in resolve_trace_paths(path)
        for event in obs_trace.read_jsonl(file)
        if event["kind"] == "trial.ran"
    )


@_NEEDS_FORK
def test_successive_sweeps_under_one_activation_keep_every_shard(tmp_path):
    """The second pool numbers its shards after the first pool's, so it
    never reopens (and truncates) a shard the first sweep wrote."""
    path = str(tmp_path / "trace.jsonl")
    with ObsConfig(trace=path).activate():
        _one_point(_traced_trial, [1, 2], jobs=2)
        _one_point(_traced_trial, [3, 4], jobs=2)
    assert _traced_seeds(path) == [1, 2, 3, 4]


@_NEEDS_FORK
def test_rerun_to_the_same_path_drops_stale_worker_shards(tmp_path):
    """Activation deletes the shards of an earlier parallel run, so a
    serial rerun reads back only its own events."""
    path = str(tmp_path / "trace.jsonl")
    with ObsConfig(trace=path).activate():
        _one_point(_traced_trial, [1, 2, 3, 4], jobs=2)
    with ObsConfig(trace=path).activate():
        _one_point(_traced_trial, [1, 2], jobs=1)
    assert resolve_trace_paths(path) == [path]
    assert _traced_seeds(path) == [1, 2]


# ----------------------------------------------------------------------
# Timeline recording (flight recorder) through ObsConfig
# ----------------------------------------------------------------------
def _recorded_trial(point, seed):
    from repro.experiments.figures.common import pdd_experiment

    outcome = pdd_experiment(
        seed, rows=3, cols=3, metadata_count=100, sim_cap_s=30.0
    )
    return {
        "recall": outcome.first.recall,
        "latency_s": outcome.first.result.latency,
        "overhead_bytes": outcome.total_overhead_bytes,
    }


def test_timeline_knob_does_not_perturb_results():
    plain = _one_point(_recorded_trial, [1, 2], jobs=1)
    with ObsConfig(timeline=True).activate():
        recorded = _one_point(_recorded_trial, [1, 2], jobs=1)
    assert recorded == plain


@_NEEDS_FORK
def test_timeline_knob_shards_per_worker(tmp_path):
    path = str(tmp_path / "tl.jsonl")
    with ObsConfig(timeline=path).activate():
        sweep_point = _one_point(_recorded_trial, [1, 2, 3, 4], jobs=2)
    assert sweep_point.seeds == (1, 2, 3, 4)
    shards = sorted(p for p in os.listdir(tmp_path) if p.startswith("tl."))
    assert shards and all(p.endswith(".jsonl") for p in shards)
    from repro.obs.timeline import load_timeline, reconstruct_at

    load = load_timeline(path)
    assert len(load.runs) == 4  # one recorded run per trial
    for run in load.runs:
        _, _, flat = reconstruct_at(run, run.t_max)
        assert flat  # every shard ends in reconstructible state


def test_timeline_knob_memory_refuses_parallel():
    """A memory timeline's records would die with the worker, so a pool
    refuses it the way it refuses a memory fingerprint: jobs=1 hint."""
    from repro.experiments.runner import _worker_config

    class _ForkContext:
        @staticmethod
        def get_start_method():
            return "fork"

    with ObsConfig(timeline=True, timeline_interval=0.5).activate():
        with pytest.raises(ConfigurationError, match="in-memory timeline"):
            _worker_config(_ForkContext())
        with pytest.raises(ConfigurationError) as excinfo:
            _one_point(_recorded_trial, [1, 2], jobs=2)
    assert "jobs=1" in str(excinfo.value)


def test_worker_config_requires_fork_for_files(tmp_path):
    from repro.experiments.runner import _worker_config

    class _SpawnContext:
        @staticmethod
        def get_start_method():
            return "spawn"

    assert _worker_config(_SpawnContext()) is None  # nothing active
    for config in (
        ObsConfig(trace=str(tmp_path / "t.jsonl")),
        ObsConfig(timeline=str(tmp_path / "tl.jsonl")),
        ObsConfig(fingerprint=str(tmp_path / "fp.jsonl")),
    ):
        with config.activate():
            with pytest.raises(ConfigurationError) as excinfo:
                _worker_config(_SpawnContext())
            assert "jobs=1" in str(excinfo.value)


def test_worker_activates_its_own_shard_of_one_config(tmp_path):
    """One initarg carries all three instruments; worker ``k`` re-points
    every file at its own shard ``k``."""
    from repro.obs import config as obs_config

    config = ObsConfig(
        trace=str(tmp_path / "t.jsonl"),
        timeline=str(tmp_path / "tl.jsonl"),
        fingerprint=str(tmp_path / "fp.jsonl"),
        fingerprint_every=64,
    )
    obs_config.enter_worker(config, 3)
    obs = obs_config.active()
    try:
        assert obs.config == config.for_worker(3)
        assert dict(obs.config.artifacts()) == {
            "trace": str(tmp_path / "t.3.jsonl"),
            "timeline": str(tmp_path / "tl.3.jsonl"),
            "fingerprint": str(tmp_path / "fp.3.jsonl"),
        }
        assert Simulator().trace.enabled  # subscribed to the worker's shard
    finally:
        obs_config._STACK.remove(obs)
        obs.close()
