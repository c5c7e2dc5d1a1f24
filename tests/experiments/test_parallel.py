"""Parallel campaign tests: determinism, crash isolation, observability.

The trial functions live at module level so forked workers can resolve
them by reference.  Each is deterministic in its seed, which is what
makes the bit-identity assertions meaningful.  Most campaigns here are
one-point sweeps (:func:`_one_point`), so failures and results read per
seed.
"""

import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_sweep
from repro.obs import trace as obs_trace
from repro.obs.config import ObsConfig, active
from repro.sim.simulator import Simulator


def _one_point(trial, seeds, **kwargs):
    """Run ``trial`` over ``seeds`` as a one-point sweep; its SweepPoint."""
    (point,) = run_sweep(trial, [{"base": 0}], seeds=seeds, **kwargs)
    return point


def _ok_trial(point, seed):
    return {"recall": 1.0, "latency_s": float(seed), "overhead_bytes": 1000 * seed}


def _raises_on_seed_2(point, seed):
    if seed == 2:
        raise RuntimeError("injected failure")
    return _ok_trial(point, seed)


def _sleeps_on_seed_2(point, seed):
    if seed == 2:
        time.sleep(30.0)
    return _ok_trial(point, seed)


def _dies_on_seed_2(point, seed):
    if seed == 2:
        os._exit(17)  # hard worker death, not an exception
    return _ok_trial(point, seed)


def _traced_trial(point, seed):
    # A simulator subscribes the active config's trace sink of *this*
    # process — in a worker, its own JSONL shard.
    Simulator().trace.emit("trial.ran", seed=seed)
    return _ok_trial(point, seed)


def _sweep_trial(point, seed):
    return {"score": point["base"] * 100 + seed}


def _sweep_raises_everywhere(point, seed):
    raise ValueError(f"bad point {point['base']}")


def test_parallel_matches_serial_aggregate():
    """Same seeds, any worker count → the same SweepPoint."""
    serial = _one_point(_ok_trial, [1, 2, 3, 4, 5], jobs=1)
    parallel = _one_point(_ok_trial, [1, 2, 3, 4, 5], jobs=4)
    assert parallel == serial
    assert serial.seeds == (1, 2, 3, 4, 5)


def test_parallel_failure_becomes_structured_row():
    sweep_point = _one_point(_raises_on_seed_2, [1, 2, 3], jobs=2)
    assert sweep_point.seeds == (1, 3)  # seeds 1 and 3 still returned
    assert len(sweep_point.failures) == 1
    failure = sweep_point.failures[0]
    assert failure.seed == 2
    assert failure.kind == "error"
    assert failure.attempts == 2  # first try + one retry
    assert "injected failure" in failure.error


def test_serial_path_still_propagates():
    """jobs=1 keeps the historical contract: exceptions escape."""
    with pytest.raises(RuntimeError):
        _one_point(_raises_on_seed_2, [1, 2, 3], jobs=1)


@pytest.mark.skipif(
    not hasattr(__import__("signal"), "SIGALRM"), reason="needs SIGALRM"
)
def test_parallel_timeout_becomes_failure():
    sweep_point = _one_point(
        _sleeps_on_seed_2, [1, 2, 3], jobs=2, timeout_s=0.5, retries=0
    )
    assert sweep_point.seeds == (1, 3)
    assert [f.kind for f in sweep_point.failures] == ["timeout"]
    assert sweep_point.failures[0].seed == 2


def test_parallel_worker_crash_is_isolated():
    """A worker that dies mid-trial surfaces as kind='crash'; the other
    seeds — possibly collateral damage of the shared pool breaking —
    still complete via the isolated retry round."""
    sweep_point = _one_point(_dies_on_seed_2, [1, 2, 3], jobs=2)
    assert sweep_point.seeds == (1, 3)
    assert [f.kind for f in sweep_point.failures] == ["crash"]
    assert sweep_point.failures[0].seed == 2


def test_crash_does_not_fail_innocent_siblings():
    """One worker's death poisons every pending future in the pool with
    BrokenProcessPool; with retries=0 the old accounting turned healthy
    sibling trials into permanent kind='crash' failures after a single
    genuine attempt.  Only the task that ran on the dead worker may fail."""
    sweep_point = _one_point(_dies_on_seed_2, [1, 2, 3], jobs=2, retries=0)
    # Seeds 1 and 3 complete despite the shared pool.
    assert sweep_point.seeds == (1, 3)
    assert [f.seed for f in sweep_point.failures] == [2]
    assert [f.kind for f in sweep_point.failures] == ["crash"]
    # One *charged* execution: the isolated retry where blame is
    # unambiguous.  Pool-wide fallout is never charged to anyone.
    assert sweep_point.failures[0].attempts == 1


def test_crash_attempts_reflect_charged_executions():
    """TrialFailure.attempts counts executions attributable to the task
    itself — never inflated by sibling crashes sharing its pool."""
    sweep_point = _one_point(_dies_on_seed_2, [1, 2, 3], jobs=2, retries=1)
    assert sweep_point.seeds == (1, 3)
    failure = sweep_point.failures[0]
    assert failure.seed == 2 and failure.kind == "crash"
    assert failure.attempts == 2  # isolated first charge + one retry


def test_failure_kinds_only_for_exhibiting_task():
    """After the spillover fix, 'crash' appears only on the crashing
    trial; an erroring sibling keeps its own kind."""

    sweep_point = _one_point(_dies_or_raises, [1, 2, 3, 4], jobs=2, retries=0)
    kinds = {f.seed: f.kind for f in sweep_point.failures}
    assert kinds == {2: "crash", 3: "error"}
    assert sweep_point.seeds == (1, 4)  # seeds 1 and 4 survive


def _dies_or_raises(point, seed):
    if seed == 2:
        os._exit(17)
    if seed == 3:
        raise RuntimeError("injected failure")
    return _ok_trial(point, seed)


def _traced_dies_once_on_seed_2(point, seed):
    """Emits a trace event, then dies on seed 2's *first* attempt only.

    The flag file (path via env, inherited across fork) makes the death
    one-shot, so the retry succeeds — leaving the aborted attempt's
    partial shard events for sanitization to drop.
    """
    Simulator().trace.emit("trial.ran", seed=seed)
    if seed == 2:
        flag = os.environ["REPRO_TEST_DIE_ONCE_FLAG"]
        if not os.path.exists(flag):
            with open(flag, "w"):
                pass
            # Land the partial event on disk before dying, like a
            # buffer flush mid-trial would.
            active("trace").trace_sink.flush()
            os._exit(23)
    return _ok_trial(point, seed)


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="trace shards need fork",
)
def test_crashed_attempt_shard_events_are_dropped(tmp_path, monkeypatch):
    """A killed attempt's partial trace shard events must not
    double-count next to the successful retry's events."""
    monkeypatch.setenv(
        "REPRO_TEST_DIE_ONCE_FLAG", str(tmp_path / "died-once")
    )
    path = str(tmp_path / "trace.jsonl")
    with ObsConfig(trace=path).activate():
        sweep_point = _one_point(_traced_dies_once_on_seed_2, [1, 2, 3], jobs=2)
    # The retry succeeded.
    assert sweep_point.seeds == (1, 2, 3) and not sweep_point.failures
    events = []
    for name in sorted(os.listdir(tmp_path)):
        if name.startswith("trace.") and name != "trace.jsonl":
            events += obs_trace.read_jsonl(str(tmp_path / name))
    seeds = sorted(e["seed"] for e in events if e["kind"] == "trial.ran")
    # Without sanitization this reads [1, 2, 2, 3]: the dead first
    # attempt's event plus the retry's.
    assert seeds == [1, 2, 3]


def _profiled_fails_once(point, seed):
    """Runs a tiny simulation, then fails the first attempt of seed 1
    (raises at once) and of seed 6 (kills its worker).  Every other
    attempt takes 0.2 s, so both workers run several trials and the one
    that failed seed 1 runs another trial next."""
    sim = Simulator()
    sim.metrics.counter("trials").inc()
    sim.schedule(0.1, lambda: None)
    sim.run()
    flag = os.path.join(os.environ["REPRO_TEST_FAIL_ONCE_DIR"], str(seed))
    first_attempt = not os.path.exists(flag)
    if first_attempt:
        with open(flag, "w"):
            pass
    if seed == 1 and first_attempt:
        raise RuntimeError("injected failure")
    time.sleep(0.2)
    if seed == 6 and first_attempt:
        os._exit(17)
    return _ok_trial(point, seed)


def test_crash_and_error_retries_profile_each_trial_once(tmp_path, monkeypatch):
    """A failed attempt's run records and registry are dropped with it:
    the next trial on the same worker must not ship them, so every seed
    is profiled exactly once however often it was attempted."""
    monkeypatch.setenv("REPRO_TEST_FAIL_ONCE_DIR", str(tmp_path))
    seeds = [1, 2, 3, 4, 5, 6]
    with ObsConfig(metrics=True).activate() as obs:
        sweep_point = _one_point(_profiled_fails_once, seeds, jobs=2)
    assert sweep_point.seeds == tuple(seeds) and not sweep_point.failures
    labels = sorted(record.label for record in obs.profiler.records)
    assert labels == sorted(f"point 0 seed {seed}" for seed in seeds)
    assert obs.profiler.registry().counter("trials").value == len(seeds)


def test_run_sweep_parallel_matches_serial():
    points = [{"base": base} for base in (1, 2, 3)]
    serial = run_sweep(_sweep_trial, points, seeds=[1, 2], jobs=1)
    parallel = run_sweep(_sweep_trial, points, seeds=[1, 2], jobs=3)
    assert [sp.results for sp in parallel] == [sp.results for sp in serial]
    assert [sp.point for sp in parallel] == points
    assert all(sp.ok for sp in parallel)


def test_run_sweep_all_seeds_failing_marks_point():
    sweep = run_sweep(
        _sweep_raises_everywhere, [{"base": 9}], seeds=[1, 2], jobs=2
    )
    assert not sweep[0].ok
    assert sweep[0].results == ()
    assert len(sweep[0].failures) == 2


def test_run_sweep_labels_failures(tmp_path):
    sweep = run_sweep(
        _sweep_raises_everywhere,
        [{"base": 7}],
        seeds=[1],
        jobs=2,
        label_fn=lambda p: f"base {p['base']}",
    )
    assert sweep[0].failures[0].label == "base 7 seed 1"


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="trace shards need fork",
)
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


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="timeline shards need fork",
)
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
