"""Unit tests for the figure-regeneration CLI."""

import os

import pytest

from repro.cli import build_parser, main
from repro.experiments.figures import REGISTRY
from repro.experiments.figures import fig4_grid_size as fig4

FIG4_ROW = {
    "grid": "3x3",
    "max_hops": 1,
    "recall": 1.0,
    "latency_s": 0.1,
    "overhead_mb": 0.01,
}


@pytest.fixture
def fig4_calls(monkeypatch):
    """Stub fig4's sweep; returns the keyword arguments of each call."""
    calls = []

    def run(*args, **kwargs):
        calls.append(kwargs)
        return [FIG4_ROW]

    monkeypatch.setattr(REGISTRY["fig4"], "run", run)
    return calls


def test_list_prints_all_figures(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for figure_id in REGISTRY:
        assert figure_id in out


def test_unknown_figure_errors(capsys):
    assert main(["bogus"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_seeds_and_scale_reach_the_sweep_not_the_environment(
    tmp_path, capsys, fig4_calls
):
    """--seeds and --scale travel as arguments, never through os.environ."""
    before = dict(os.environ)
    store = str(tmp_path / "store")
    argv = ["fig4", "--seeds", "3", "--scale", "0.5", "--store", store]
    assert main(argv) == 0
    assert main(["fig4"]) == 0
    assert dict(os.environ) == before
    scaled_down, paper = fig4_calls
    assert scaled_down["seeds"] == [1, 2, 3]
    assert scaled_down["store"] == store
    assert scaled_down["entries_per_node"] < paper["entries_per_node"]
    assert paper["entries_per_node"] == fig4.ENTRIES_PER_NODE
    assert paper["seeds"] is None


def test_jobs_flag_reaches_the_sweep_not_the_environment(capsys, fig4_calls):
    """--jobs travels as an argument; without it the sweep runs serially."""
    before = dict(os.environ)
    assert main(["fig4", "--jobs", "2"]) == 0
    assert main(["fig4"]) == 0
    assert dict(os.environ) == before
    assert [call["jobs"] for call in fig4_calls] == [2, 1]


def test_single_figure_runs_table(capsys, fig4_calls):
    assert main(["fig4", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(REGISTRY["fig4"].render([FIG4_ROW]))
    assert "3x3" in out


def test_parser_flags():
    parser = build_parser()
    args = parser.parse_args(["fig5", "--seeds", "2"])
    assert args.figure == "fig5"
    assert args.seeds == 2
    assert args.scale is None


def test_bad_jobs_flag_reports_cleanly(capsys, fig4_calls):
    """A bad setting prints one configuration error, not a traceback."""
    assert main(["fig4", "--jobs", "-2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "jobs" in err and "-2" in err
    assert fig4_calls == []


@pytest.mark.parametrize(
    "flags", [["--seeds", "0"], ["--seeds", "-1"], ["--scale", "0"]]
)
def test_bad_seeds_or_scale_exit_two(capsys, fig4_calls, flags):
    assert main(["fig4", *flags]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert fig4_calls == []


@pytest.mark.parametrize(
    "flags",
    [["--memory"], ["--keyframe-every", "3"]],
    ids=["memory", "keyframe-every"],
)
def test_removed_flags_exit_two(capsys, fig4_calls, flags):
    """Host memory is perfbench's question and the timeline keyframe
    cadence is fixed, so neither flag is accepted any more."""
    with pytest.raises(SystemExit) as excinfo:
        main(["fig4", *flags])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert fig4_calls == []


def test_jobs_zero_means_one_worker_per_core(capsys, fig4_calls):
    assert main(["fig4", "--jobs", "0"]) == 0
    assert fig4_calls[0]["jobs"] == (os.cpu_count() or 1)


def test_campaign_subcommands_require_store(capsys):
    for command in (["status"], ["gc"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", *command])
        assert excinfo.value.code == 2
        assert "--store" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["resume", "fig4"], ["gc", "--failed"]],
    ids=["resume", "gc-failed"],
)
def test_removed_campaign_commands_exit_two(tmp_path, capsys, command):
    """Re-running the figure command resumes a campaign, and failure
    records are no longer written, so neither command remains."""
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", *command, "--store", str(tmp_path)])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err
