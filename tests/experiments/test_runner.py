"""Unit tests for the trial runner and table rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    DEFAULT_SEEDS,
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


def test_sweep_jobs_zero_means_one_worker_per_core():
    """Regression: ``run_sweep(..., jobs=0)`` died with a bare
    ``ValueError: max_workers must be greater than 0`` from the process
    pool; only the CLI mapped 0 to the core count."""
    sweep = run_sweep(_echo_trial, [{}], seeds=[1, 2], jobs=0)
    assert sweep == run_sweep(_echo_trial, [{}], seeds=[1, 2], jobs=1)


@pytest.mark.parametrize("jobs", [-1, -4])
def test_sweep_rejects_negative_jobs(jobs):
    with pytest.raises(ConfigurationError) as excinfo:
        run_sweep(_echo_trial, [{}], seeds=[1], jobs=jobs)
    assert "jobs" in str(excinfo.value)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_rejects_an_empty_seed_list(jobs):
    """Regression: ``seeds=[]`` used to return empty points, which
    ``point_mean`` turned into ``nan`` rows without an error."""
    with pytest.raises(ConfigurationError, match="seed"):
        run_sweep(_echo_trial, [{}], seeds=[], jobs=jobs)


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
