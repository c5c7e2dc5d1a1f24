"""Unit tests for the figure-regeneration CLI."""

from repro.cli import build_parser, main
from repro.experiments.figures import REGISTRY


def test_list_prints_all_figures(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_SEEDS", raising=False)
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for figure_id in REGISTRY:
        assert figure_id in out


def test_unknown_figure_errors(capsys):
    assert main(["bogus"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_seeds_and_scale_set_environment(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_SEEDS", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    import os

    assert main(["list", "--seeds", "3", "--scale", "0.5"]) == 0
    assert os.environ["REPRO_SEEDS"] == "3"
    assert os.environ["REPRO_SCALE"] == "0.5"


def test_single_figure_runs_table(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SEEDS", "1")
    # fig4 at tiny scale via its module defaults is too slow for a unit
    # test; patch the module's run to a stub and check wiring only.
    module = REGISTRY["fig4"]
    monkeypatch.setattr(
        module, "run", lambda *a, **k: [{"grid": "3x3", "max_hops": 1,
                                         "recall": 1.0, "latency_s": 0.1,
                                         "overhead_mb": 0.01}]
    )
    assert main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert "3x3" in out


def test_parser_flags():
    parser = build_parser()
    args = parser.parse_args(["fig5", "--seeds", "2"])
    assert args.figure == "fig5"
    assert args.seeds == 2
    assert args.scale is None


def test_jobs_flag_sets_environment(monkeypatch):
    # setenv first so monkeypatch restores the pre-test state even though
    # main() itself mutates os.environ.
    monkeypatch.setenv("REPRO_JOBS", "1")
    import os

    assert main(["list", "--jobs", "4"]) == 0
    assert os.environ["REPRO_JOBS"] == "4"


def test_bad_jobs_env_reports_cleanly(capsys, monkeypatch):
    """A typo'd knob prints one configuration error, not a traceback."""
    monkeypatch.setenv("REPRO_JOBS", "many")
    assert main(["fig4"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "REPRO_JOBS" in err
