"""Unit tests for the trial runner and table rendering."""

import signal
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    DEFAULT_SEEDS,
    TrialTimeout,
    _trial_deadline,
    check_scale,
    point_mean,
    render_table,
    run_sweep,
    seed_list,
    worker_count,
)


def test_default_seeds_five_runs():
    """The paper averages over 5 runs (§VI-A)."""
    assert len(DEFAULT_SEEDS) == 5


def _echo_trial(point, seed):
    return {"seed": seed}


def test_configured_seeds_default():
    """A sweep given no seeds runs the paper's five."""
    sweep = run_sweep(_echo_trial, [{}])
    assert sweep[0].seeds == DEFAULT_SEEDS


@pytest.mark.parametrize("raw", ["banana", "2.5", "0", "-3"])
def test_configured_seeds_rejects_bad_values(raw):
    """Regression: a typo'd seed count used to crash with a bare
    ValueError (or, for 0/-3, silently yield an empty campaign whose
    aggregation then divided by zero)."""
    with pytest.raises(ConfigurationError) as excinfo:
        seed_list(raw)
    assert "seeds" in str(excinfo.value)
    assert repr(raw) in str(excinfo.value)


@pytest.mark.parametrize("raw", ["fast", "0", "-1"])
def test_scale_factor_rejects_bad_values(raw):
    """Regression: a zero scale used to produce empty workloads that
    looked like perfect recall; non-numeric values crashed mid-sweep."""
    with pytest.raises(ConfigurationError) as excinfo:
        check_scale(raw)
    assert "scale" in str(excinfo.value)
    assert repr(raw) in str(excinfo.value)


def test_campaign_settings_accept_flag_and_env_forms():
    assert seed_list(3) == seed_list("3") == [1, 2, 3]
    assert check_scale(0.25) == check_scale("0.25") == 0.25
    assert worker_count(3) == worker_count("3") == 3


@pytest.mark.parametrize("raw", ["0"])
def test_configured_jobs_auto_means_cpu_count(raw):
    import os

    assert worker_count(raw) == (os.cpu_count() or 1)


@pytest.mark.parametrize("raw", ["-2", "two", "1.5"])
def test_configured_jobs_rejects_bad_values(raw):
    with pytest.raises(ConfigurationError) as excinfo:
        worker_count(raw)
    assert "jobs" in str(excinfo.value)
    assert repr(raw) in str(excinfo.value)


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="deadline needs SIGALRM (Unix)"
)
def test_trial_deadline_fires_on_subsecond_timeout():
    """Regression: an integer ``signal.alarm`` would truncate 0.5s to 0
    ("never"); ``setitimer`` must fire the deadline at ~0.5s."""
    start = time.monotonic()
    with pytest.raises(TrialTimeout, match="0.5s deadline"):
        with _trial_deadline(0.5, "sleepy-trial"):
            time.sleep(5.0)
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize("bad", [0, 0.0, -1.5])
def test_trial_deadline_rejects_non_positive_timeout(bad):
    """A non-positive timeout must be a loud error, not an ``alarm(0)``
    style silent disarm."""
    with pytest.raises(ConfigurationError, match="positive"):
        with _trial_deadline(bad, "x"):
            pass  # pragma: no cover - never entered


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="deadline needs SIGALRM (Unix)"
)
def test_trial_deadline_disarms_and_restores_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with _trial_deadline(0.2, "quick"):
        pass
    assert signal.getsignal(signal.SIGALRM) is previous
    time.sleep(0.3)  # would blow up here if the timer were left armed


def test_trial_deadline_none_disables():
    with _trial_deadline(None, "x"):
        pass


def test_run_sweep_aggregates():
    def trial(point, seed):
        return {"latency_s": point["scale"] * seed}

    sweep = run_sweep(trial, [{"scale": 1.0}, {"scale": 2.0}], seeds=[1, 2, 3])
    assert [sp.seeds for sp in sweep] == [(1, 2, 3), (1, 2, 3)]
    assert point_mean(sweep[0], "latency_s") == pytest.approx(2.0)
    assert point_mean(sweep[1], "latency_s") == pytest.approx(4.0)


def _sinks_seen_by_trial(point, seed):
    """The trace sinks a trial's simulator subscribes."""
    from repro.sim.simulator import Simulator

    return [type(sink).__name__ for sink in Simulator().trace._sinks]


def test_traced_sweep_adds_no_sink_of_its_own(tmp_path):
    """Under a trace the trial sees exactly the configured sink: the
    runner keeps no in-memory copy of every event."""
    from repro.obs.config import ObsConfig

    with ObsConfig(trace=str(tmp_path / "t.jsonl")).activate():
        (sweep_point,) = run_sweep(_sinks_seen_by_trial, [{}], seeds=[1], jobs=1)
    assert sweep_point.results == (["JsonlSink"],)


def test_render_table_contains_rows():
    table = render_table(
        "My Title",
        ["a", "b"],
        [{"a": 1, "b": "x"}, {"a": 2, "b": "longer-value"}],
    )
    assert "My Title" in table
    assert "longer-value" in table
    lines = table.splitlines()
    assert len(lines) >= 6


def test_render_table_missing_cells_blank():
    table = render_table("T", ["a", "b"], [{"a": 1}])
    assert "1" in table
