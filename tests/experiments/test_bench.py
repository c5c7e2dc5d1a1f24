"""Tests for the ``repro bench`` perf-regression harness."""

import json

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
        "wall_s": 1.0,
        "events": 1000,
        "peak_queue_depth": 40,
        "calibration_s": 0.1,
        "meta": {"digest": "abc123"},
    }
    base.update(overrides)
    return base


def test_check_passes_on_identical_results():
    assert _check_one("x", record(), record(), tolerance=0.25) == []


def test_check_flags_counter_drift():
    failures = _check_one("x", record(events=1001), record(), tolerance=0.25)
    assert any("events" in failure for failure in failures)


def test_check_flags_digest_drift():
    failures = _check_one(
        "x", record(meta={"digest": "zzz"}), record(), tolerance=0.25
    )
    assert any("digest" in failure for failure in failures)


def test_check_flags_wall_regression():
    failures = _check_one("x", record(wall_s=1.5), record(), tolerance=0.25)
    assert any("wall-clock" in failure for failure in failures)


def test_check_allows_wall_within_tolerance():
    assert _check_one("x", record(wall_s=1.2), record(), tolerance=0.25) == []


def test_check_allows_speedups():
    assert _check_one("x", record(wall_s=0.1), record(), tolerance=0.25) == []


def test_check_normalizes_by_machine_speed():
    """A 2x-slower machine (per calibration) gets a 2x-scaled budget."""
    slow_machine = record(wall_s=1.9, calibration_s=0.2)
    assert _check_one("x", slow_machine, record(), tolerance=0.25) == []
    too_slow_even_scaled = record(wall_s=2.6, calibration_s=0.2)
    failures = _check_one("x", too_slow_even_scaled, record(), tolerance=0.25)
    assert any("wall-clock" in failure for failure in failures)


def test_check_skips_wall_gate_below_noise_floor():
    tiny = record(wall_s=bench.MIN_GATED_WALL_S / 10)
    assert _check_one("x", record(wall_s=5.0), tiny, tolerance=0.25) == []


# ----------------------------------------------------------------------
# CLI end to end (micro benchmarks only: fast)
# ----------------------------------------------------------------------
def test_bench_writes_schema_and_baseline_roundtrip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    out_dir = tmp_path / "out"
    assert (
        run_bench(
            [
                "bloom_ops",
                "--quick",
                "--out-dir",
                str(out_dir),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        == 0
    )
    result = json.loads((out_dir / "BENCH_bloom_ops.json").read_text())
    for field in (
        "schema",
        "name",
        "quick",
        "wall_s",
        "events",
        "events_per_sec",
        "peak_queue_depth",
        "calibration_s",
        "meta",
    ):
        assert field in result
    assert result["name"] == "bloom_ops"
    assert result["quick"] is True
    assert result["events"] > 0
    assert result["meta"]["digest"]

    saved = json.loads(baseline.read_text())
    assert saved["quick"]["bloom_ops"]["events"] == result["events"]

    # Re-running against the fresh baseline passes the gate.
    assert (
        run_bench(
            [
                "bloom_ops",
                "--quick",
                "--check",
                "--out-dir",
                str(out_dir),
                "--baseline",
                str(baseline),
            ]
        )
        == 0
    )
    assert "perf check passed" in capsys.readouterr().out


def test_bench_check_fails_on_doctored_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    out_dir = tmp_path / "out"
    run_bench(
        [
            "spatial_index",
            "--quick",
            "--out-dir",
            str(out_dir),
            "--baseline",
            str(baseline),
            "--update-baseline",
        ]
    )
    doctored = json.loads(baseline.read_text())
    doctored["quick"]["spatial_index"]["events"] += 1
    baseline.write_text(json.dumps(doctored))
    assert (
        run_bench(
            [
                "spatial_index",
                "--quick",
                "--check",
                "--out-dir",
                str(out_dir),
                "--baseline",
                str(baseline),
            ]
        )
        == 1
    )
    assert "deterministic counter" in capsys.readouterr().err


def test_bench_check_without_baseline_errors(tmp_path):
    assert (
        run_bench(
            [
                "bloom_ops",
                "--quick",
                "--check",
                "--out-dir",
                str(tmp_path),
                "--baseline",
                str(tmp_path / "missing.json"),
            ]
        )
        == 2
    )


def test_bench_rejects_unknown_names(tmp_path):
    assert run_bench(["nope", "--out-dir", str(tmp_path)]) == 2


def test_bench_list(capsys):
    assert run_bench(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("bloom_ops", "spatial_index", "mobility_pdd", "round_params"):
        assert name in out


def test_cli_dispatches_bench_subcommand(tmp_path, capsys):
    from repro.cli import main as cli_main

    assert cli_main(["bench", "--list"]) == 0
    assert "bloom_ops" in capsys.readouterr().out


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "0.9")
    assert bench._resolve_tolerance(None) == pytest.approx(0.9)
    assert bench._resolve_tolerance(0.1) == pytest.approx(0.1)
    monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "junk")
    assert bench._resolve_tolerance(None) == bench.DEFAULT_TOLERANCE


# ----------------------------------------------------------------------
# Scaling-curve gating
# ----------------------------------------------------------------------
def curve_record(**point_overrides):
    point = {"nodes": 100, "wall_s": 1.0, "events": 5000}
    point.update(point_overrides)
    return record(curve=[{"nodes": 30, "wall_s": 0.2, "events": 900}, point])


def test_check_passes_on_identical_curves():
    assert _check_one("scaling", curve_record(), curve_record(), 0.25) == []


def test_check_flags_per_point_curve_regression():
    # The total wall stays within tolerance, but the large point alone
    # regressed past it — the per-point gate must still catch it.
    current = curve_record(wall_s=1.6)
    current["wall_s"] = 1.1  # total within 25%
    failures = _check_one("scaling", current, curve_record(), 0.25)
    assert any("curve regression at 100 nodes" in f for f in failures)


def test_check_flags_missing_curve_point():
    current = record(curve=[{"nodes": 30, "wall_s": 0.2, "events": 900}])
    failures = _check_one("scaling", current, curve_record(), 0.25)
    assert any("curve point for 100 nodes missing" in f for f in failures)


def test_check_normalizes_curve_points_by_machine_speed():
    # 1.5x slower machine overall: a 1.4x slower point is fine...
    current = curve_record(wall_s=1.4)
    current["calibration_s"] = 0.15
    current["wall_s"] = 1.6
    assert _check_one("scaling", current, curve_record(), 0.25) == []
    # ...but a 2.5x slower point is a regression even on that machine.
    current = curve_record(wall_s=2.5)
    current["calibration_s"] = 0.15
    current["wall_s"] = 2.7
    failures = _check_one("scaling", current, curve_record(), 0.25)
    assert any("curve regression" in f for f in failures)


def test_check_skips_curve_points_below_noise_floor():
    baseline = record(curve=[{"nodes": 30, "wall_s": 0.01, "events": 900}])
    current = record(curve=[{"nodes": 30, "wall_s": 0.04, "events": 900}])
    assert _check_one("scaling", current, baseline, 0.25) == []


def test_scaling_bench_quick_shape(tmp_path):
    code = run_bench(["scaling", "--quick", "--out-dir", str(tmp_path)])
    assert code == 0
    result = json.loads((tmp_path / "BENCH_scaling.json").read_text())
    assert result["schema"] == bench.SCHEMA_VERSION
    curve = result["curve"]
    assert [p["nodes"] for p in curve] == [30, 64, 121]
    for point in curve:
        assert point["events"] > 0
        assert point["events_per_sec"] > 0
        assert point["peak_rss_kb"] > 0
        assert set(point) == {
            "nodes",
            "rows",
            "cols",
            "wall_s",
            "events",
            "events_per_sec",
            "peak_queue_depth",
            "peak_rss_kb",
            "recall",
        }
    assert result["meta"]["points"] == 3
    assert result["events"] == sum(p["events"] for p in curve)


# ----------------------------------------------------------------------
# --fingerprint / --timeline are scoped to one bench invocation
# ----------------------------------------------------------------------
def _tiny_scenario_bench(quick):
    """A registered-on-the-fly benchmark that builds and runs a scenario."""
    from repro.experiments.figures.common import experiment_device_config
    from repro.experiments.scenario import build_grid_scenario
    from repro.obs.fingerprint import configured_fingerprint
    from repro.obs.recorder import configured_recording

    scenario = build_grid_scenario(
        rows=2, cols=2, seed=1, device_config=experiment_device_config()
    )
    scenario.sim.run(until=3.0)
    return bench._result(
        0.01,
        events=scenario.sim.events_processed,
        peak_queue_depth=0,
        meta={
            "fingerprinted": configured_fingerprint() is not None,
            "recorded": configured_recording() is not None,
        },
    )


@pytest.mark.parametrize("flag", ["--fingerprint", "--timeline"])
def test_bench_observability_flag_does_not_leak(
    tmp_path, monkeypatch, capsys, flag
):
    """The instrument is on for every benchmark of the call, writes its
    file, and is off again once ``main`` returns."""
    from repro.obs.fingerprint import configured_fingerprint
    from repro.obs.recorder import configured_recording

    monkeypatch.setitem(bench._BENCHMARKS, "tiny_scenario", _tiny_scenario_bench)
    monkeypatch.setitem(bench._REPEATS, "tiny_scenario", 1)
    path = tmp_path / "artifact.jsonl"
    out_dir = tmp_path / "out"
    assert (
        run_bench(
            ["tiny_scenario", flag, str(path), "--out-dir", str(out_dir)]
        )
        == 0
    )
    meta = json.loads((out_dir / "BENCH_tiny_scenario.json").read_text())["meta"]
    assert meta == {
        "fingerprinted": flag == "--fingerprint",
        "recorded": flag == "--timeline",
    }
    assert path.stat().st_size > 0
    assert len(path.read_text().splitlines()) > 1  # records past the header
    assert configured_fingerprint() is None
    assert configured_recording() is None


# ----------------------------------------------------------------------
# Peak-RSS platform normalization
# ----------------------------------------------------------------------
def test_peak_rss_kb_linux_passthrough(monkeypatch):
    """Linux ``ru_maxrss`` is already KiB and must pass through."""
    monkeypatch.setattr(bench.sys, "platform", "linux")
    assert bench._peak_rss_kb(204800) == 204800


def test_peak_rss_kb_darwin_bytes_normalized(monkeypatch):
    """Regression: macOS reports ``ru_maxrss`` in *bytes*; treating it as
    KiB inflated the reported peak 1024x."""
    monkeypatch.setattr(bench.sys, "platform", "darwin")
    assert bench._peak_rss_kb(209715200) == 204800  # 200 MiB in bytes


def test_peak_rss_kb_reads_getrusage(monkeypatch):
    import resource

    class FakeUsage:
        ru_maxrss = 123456

    monkeypatch.setattr(bench.sys, "platform", "linux")
    monkeypatch.setattr(
        resource, "getrusage", lambda who: FakeUsage(), raising=True
    )
    assert bench._peak_rss_kb() == 123456
