"""Tests for the ``repro bench`` deterministic regression harness."""

import json
import re

import pytest

from repro import bench
from repro.bench import _check_one, main


def run_bench(args):
    return main(args)


# ----------------------------------------------------------------------
# Check logic
# ----------------------------------------------------------------------
def record(**overrides):
    base = {
        "events": 1000,
        "peak_queue_depth": 40,
        "meta": {"digest": "abc123"},
    }
    base.update(overrides)
    return base


def test_check_passes_on_identical_results():
    assert _check_one("x", record(), record()) == []


def test_check_flags_counter_drift():
    failures = _check_one("x", record(events=1001), record())
    assert any("events" in failure for failure in failures)


def test_check_flags_digest_drift():
    failures = _check_one("x", record(meta={"digest": "zzz"}), record())
    assert any("digest" in failure for failure in failures)


def test_check_recorder_mismatch_exempts_counters_not_digest():
    """A recorded run's sampling events exempt the counters; its result
    rows must still match the unrecorded baseline bit for bit."""
    recorded = record(
        events=1234, peak_queue_depth=47, meta={"digest": "abc123", "recorded": True}
    )
    assert _check_one("x", recorded, record()) == []
    drifted = record(
        events=1234, peak_queue_depth=47, meta={"digest": "zzz", "recorded": True}
    )
    failures = _check_one("x", drifted, record())
    assert len(failures) == 1 and "digest" in failures[0]


# ----------------------------------------------------------------------
# The committed baseline
# ----------------------------------------------------------------------
def test_committed_baseline_has_one_entry_per_benchmark():
    baseline = json.loads(bench.DEFAULT_BASELINE.read_text())
    assert sorted(baseline) == sorted(bench._BENCHMARKS)
    for name, entry in baseline.items():
        assert set(entry) == {"events", "peak_queue_depth", "meta"}, name
        assert entry["meta"]["digest"], name
        assert "recorded" not in entry["meta"], name


# ----------------------------------------------------------------------
# CLI end to end (micro benchmarks only: fast)
# ----------------------------------------------------------------------
def test_bench_writes_schema_and_baseline_roundtrip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert (
        run_bench(["bloom_ops", "--baseline", str(baseline), "--update-baseline"])
        == 0
    )
    saved = json.loads(baseline.read_text())
    assert list(saved) == ["bloom_ops"]
    entry = saved["bloom_ops"]
    assert set(entry) == {"events", "peak_queue_depth", "meta"}
    assert entry["events"] > 0
    assert entry["meta"]["digest"]
    assert f"digest {entry['meta']['digest']}" in capsys.readouterr().out

    # Re-running against the fresh baseline passes the gate.
    assert run_bench(["bloom_ops", "--check", "--baseline", str(baseline)]) == 0
    assert "bench check passed" in capsys.readouterr().out


def test_bench_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_bench(["spatial_index"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_bench_check_fails_on_doctored_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    run_bench(["spatial_index", "--baseline", str(baseline), "--update-baseline"])
    doctored = json.loads(baseline.read_text())
    doctored["spatial_index"]["events"] += 1
    baseline.write_text(json.dumps(doctored))
    assert run_bench(["spatial_index", "--check", "--baseline", str(baseline)]) == 1
    assert "deterministic counter" in capsys.readouterr().err


def test_bench_check_without_baseline_errors(tmp_path):
    assert (
        run_bench(
            ["bloom_ops", "--check", "--baseline", str(tmp_path / "missing.json")]
        )
        == 2
    )


def test_bench_rejects_unknown_names():
    assert run_bench(["nope"]) == 2


def test_bench_list(capsys):
    assert run_bench(["--list"]) == 0
    out = capsys.readouterr().out
    for name in bench._BENCHMARKS:
        assert name in out


def test_cli_dispatches_bench_subcommand(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["bench", "--list"]) == 0
    assert "bloom_ops" in capsys.readouterr().out


def test_bench_has_seven_settable_flags():
    parser = bench.build_parser()
    dests = {action.dest for action in parser._actions} - {"help"}
    assert dests == {
        "names",
        "list",
        "check",
        "baseline",
        "fingerprint",
        "timeline",
        "update_baseline",
    }


def test_scaling_bench_quick_shape(monkeypatch, capsys):
    monkeypatch.setattr(bench, "_SCALING_GRIDS", ((5, 6), (8, 8)))
    assert run_bench(["scaling"]) == 0
    out = capsys.readouterr().out
    points = re.findall(
        r"^\s+(\d+) nodes  events (\d+)  peak queue (\d+)  recall (\S+)  "
        r"rounds (\d+)  overhead (\d+) B$",
        out,
        flags=re.MULTILINE,
    )
    assert [int(point[0]) for point in points] == [30, 64]
    for _, events, peak, recall, rounds, overhead in points:
        assert int(events) > 0 and int(peak) > 0 and int(overhead) > 0
        assert 0.0 <= float(recall) <= 1.0
        assert int(rounds) <= 2
    total = sum(int(point[1]) for point in points)
    peak = max(int(point[2]) for point in points)
    assert f"  events {total}  peak queue {peak}  digest " in out


# ----------------------------------------------------------------------
# --fingerprint / --timeline are scoped to one bench invocation
# ----------------------------------------------------------------------
def _tiny_scenario_bench():
    """A registered-on-the-fly benchmark that builds and runs a scenario."""
    from repro.experiments.figures.common import experiment_device_config
    from repro.experiments.scenario import build_grid_scenario
    from repro.obs.config import active

    scenario = build_grid_scenario(
        rows=2, cols=2, seed=1, device_config=experiment_device_config()
    )
    scenario.sim.run(until=3.0)
    instruments = [
        name for name in ("fingerprint", "timeline", "metrics") if active(name)
    ]
    return {
        "events": scenario.sim.events_processed,
        "peak_queue_depth": 0,
        "meta": {"digest": "+".join(instruments)},
    }


@pytest.mark.parametrize("flag", ["--fingerprint", "--timeline"])
def test_bench_observability_flag_does_not_leak(
    tmp_path, monkeypatch, capsys, flag
):
    """The instrument is on for every benchmark of the call, writes its
    file, and is off again once ``main`` returns."""
    from repro.obs.config import active

    monkeypatch.setitem(bench._BENCHMARKS, "tiny_scenario", _tiny_scenario_bench)
    path = tmp_path / "artifact.jsonl"
    assert run_bench(["tiny_scenario", flag, str(path)]) == 0
    # The one activation also carries the benches' run profiler.
    assert f"digest {flag[2:]}+metrics" in capsys.readouterr().out
    assert path.stat().st_size > 0
    assert len(path.read_text().splitlines()) > 1  # records past the header
    assert active() is None


def test_update_baseline_refuses_timeline(tmp_path, capsys):
    """A recorded baseline would exempt every later unrecorded run from
    the counter gate, so recording one is a configuration error."""
    baseline = tmp_path / "baseline.json"
    timeline = tmp_path / "tl.jsonl"
    code = run_bench(
        [
            "bloom_ops",
            "--timeline",
            str(timeline),
            "--baseline",
            str(baseline),
            "--update-baseline",
        ]
    )
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
