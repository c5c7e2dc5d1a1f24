"""CLI tests for --trace / --metrics and the `inspect` subcommand."""

import json

import pytest

from repro.cli import main
from repro.experiments.figures import REGISTRY
from repro.obs.trace import read_jsonl
from repro.sim.simulator import Simulator


@pytest.fixture
def tiny_fig4(monkeypatch):
    """Replace fig4's run with a tiny real simulation (trace-visible)."""

    def run(*args, **kwargs):
        sim = Simulator()
        sim.schedule(0.1, lambda: sim.trace.emit(
            "frame_sent", node=0, frame_kind="query", size=64))
        sim.run()
        return [{"grid": "1x1", "max_hops": 0, "recall": 1.0,
                 "latency_s": 0.1, "overhead_mb": 0.0}]

    monkeypatch.setattr(REGISTRY["fig4"], "run", run)


def test_trace_flag_writes_jsonl(tmp_path, capsys, tiny_fig4):
    path = tmp_path / "out.jsonl"
    assert main(["fig4", "--trace", str(path)]) == 0
    err = capsys.readouterr().err
    assert f"trace written to {path}" in err
    events = read_jsonl(str(path))
    kinds = {e["kind"] for e in events}
    assert "frame_sent" in kinds
    assert "sim_run_end" in kinds


def test_trace_sink_removed_after_run(tmp_path, tiny_fig4):
    assert main(["fig4", "--trace", str(tmp_path / "out.jsonl")]) == 0
    assert Simulator().trace.enabled is False


def test_metrics_flag_prints_profile(capsys, tiny_fig4):
    assert main(["fig4", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out
    assert "ev/s" in out


def test_inspect_summarizes_trace(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    events = [
        {"t": 0.0, "kind": "frame_sent", "run": 1, "node": 1,
         "frame_kind": "query", "size": 100},
        {"t": 0.5, "kind": "frame_delivered", "run": 1, "node": 2,
         "frame_kind": "query", "size": 100},
    ]
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 events" in out
    assert "query" in out


def test_inspect_without_path_errors(capsys):
    assert main(["inspect"]) == 2
    assert "inspect needs a trace file" in capsys.readouterr().err


def test_inspect_missing_file_errors(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nope.jsonl")]) == 2
    assert "no such trace file" in capsys.readouterr().err


def _write_events(path, events):
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n")


_SPAN_EVENTS = [
    {"t": 1.0, "kind": "query_issued", "run": 1, "node": 1, "query_id": 10,
     "proto": "pdd", "round": 1, "consumer": 1, "expires_at": 31.0},
    {"t": 1.4, "kind": "response_sent", "run": 1, "node": 4, "query_id": 10,
     "proto": "pdd", "entries": 2, "keys": []},
]


def test_inspect_spans_flag_prints_span_table(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    _write_events(path, _SPAN_EVENTS)
    assert main(["inspect", str(path), "--spans"]) == 0
    out = capsys.readouterr().out
    assert "spans: 1 across 1 root(s)" in out
    assert "response_sent" in out


def test_inspect_audit_clean_trace_exits_zero(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    _write_events(path, _SPAN_EVENTS)
    assert main(["inspect", str(path), "--audit"]) == 0
    out = capsys.readouterr().out
    assert "audit: 0 violation(s)" in out


def test_inspect_audit_violation_exits_one(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    _write_events(path, _SPAN_EVENTS + [
        {"t": 40.0, "kind": "query_forwarded", "run": 1, "node": 3,
         "query_id": 10, "expires_at": 31.0},
    ])
    assert main(["inspect", str(path), "--audit"]) == 1
    out = capsys.readouterr().out
    assert "lingering_past_expiry" in out
    assert "FAIL" in out


def test_inspect_json_document(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    _write_events(path, _SPAN_EVENTS)
    assert main(["inspect", str(path), "--spans", "--audit", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["total"] == 2
    assert doc["audit"]["ok"] is True
    assert doc["spans"]["total"] == 1
    assert doc["spans"]["queries"][0]["query_id"] == 10
    assert doc["spans"]["queries"][0]["proto"] == "pdd"


def test_inspect_merges_worker_shards_from_base_path(tmp_path, capsys):
    base = tmp_path / "t.jsonl"
    base.write_text("")  # parent file of a --jobs N run: exists, empty
    _write_events(tmp_path / "t.0.jsonl", [_SPAN_EVENTS[0]])
    _write_events(tmp_path / "t.1.jsonl", [_SPAN_EVENTS[1]])
    assert main(["inspect", str(base)]) == 0
    out = capsys.readouterr().out
    assert "2 events" in out
    assert "loader: 3 shard file(s)" in out


def test_inspect_accepts_glob_pattern(tmp_path, capsys):
    _write_events(tmp_path / "t.0.jsonl", [_SPAN_EVENTS[0]])
    _write_events(tmp_path / "t.1.jsonl", [_SPAN_EVENTS[1]])
    assert main(["inspect", str(tmp_path / "t.*.jsonl")]) == 0
    assert "2 events" in capsys.readouterr().out


def test_inspect_accepts_directory(tmp_path, capsys):
    _write_events(tmp_path / "a.jsonl", [_SPAN_EVENTS[0]])
    _write_events(tmp_path / "b.jsonl", [_SPAN_EVENTS[1]])
    assert main(["inspect", str(tmp_path)]) == 0
    assert "2 events" in capsys.readouterr().out


def test_inspect_unmatched_glob_errors(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nope.*.jsonl")]) == 2
    assert "no trace files match" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --timeline recording and inspect dispatch
# ----------------------------------------------------------------------
@pytest.fixture
def scenario_fig4(monkeypatch):
    """Replace fig4's run with a tiny real scenario (recorder-visible)."""
    from repro.experiments.figures.common import experiment_device_config
    from repro.experiments.scenario import build_grid_scenario

    def run(*args, **kwargs):
        scenario = build_grid_scenario(
            rows=2, cols=2, seed=1, device_config=experiment_device_config()
        )
        scenario.sim.run(until=3.0)
        return [{"grid": "2x2", "recall": 1.0}]

    monkeypatch.setattr(REGISTRY["fig4"], "run", run)


def test_timeline_flag_records_jsonl(tmp_path, capsys, scenario_fig4):
    path = tmp_path / "tl.jsonl"
    assert main(
        ["fig4", "--timeline", str(path), "--timeline-interval", "0.5",
         "--keyframe-every", "3"]
    ) == 0
    err = capsys.readouterr().err
    assert f"timeline written to {path}" in err
    records = read_jsonl(str(path))
    kinds = [r["rec"] for r in records]
    assert kinds[0] == "meta"
    assert "key" in kinds and "delta" in kinds
    assert records[0]["interval"] == 0.5
    assert records[0]["keyframe_every"] == 3


def test_metrics_memory_flags_print_profile_and_telemetry(capsys, scenario_fig4):
    # Without --jobs the campaign runs in this process, where the
    # telemetry sees every phase boundary.
    assert main(["fig4", "--metrics", "--memory"]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out
    assert "memory telemetry" in out
    assert "setup" in out


def _tiny_trial(point, seed):
    sim = Simulator()
    sim.metrics.counter("net.frames_sent").inc(seed)
    sim.schedule(0.1, lambda: None)
    sim.run()
    return {"recall": 1.0}


@pytest.fixture
def sweep_fig4(monkeypatch):
    """Replace fig4's run with a two-seed sweep of a tiny simulation,
    under the worker count and store the CLI passes."""
    from repro.experiments.runner import run_sweep

    def run(*args, jobs, store, **kwargs):
        run_sweep(_tiny_trial, [{}], seeds=[1, 2], jobs=jobs, store=store)
        return [{"grid": "1x1", "recall": 1.0}]

    monkeypatch.setattr(REGISTRY["fig4"], "run", run)


def test_memory_with_parallel_jobs_exits_two(capsys, sweep_fig4):
    """Workers cross the phase boundaries, and nothing reads their
    telemetry back: refused instead of reporting no phases."""
    assert main(["fig4", "--memory", "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "jobs=1" in err


def test_metrics_on_warm_store_reports_no_registry(tmp_path, capsys, sweep_fig4):
    """A cached trial runs no simulator, so a warm campaign reports
    neither run records nor a registry."""
    argv = ["fig4", "--metrics", "--store", str(tmp_path / "store")]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "counters:" in cold
    assert "net.frames_sent                      3" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "profile: no simulator runs recorded" in warm
    assert "counters:" not in warm


@pytest.mark.parametrize(
    "flags",
    [
        ["--fingerprint", "{tmp}/fp.jsonl", "--fingerprint-every", "0"],
        ["--fingerprint", "{tmp}/fp.jsonl", "--fingerprint-every", "-4"],
        ["--timeline", "{tmp}/tl.jsonl", "--timeline-interval", "0"],
        ["--timeline", "--keyframe-every", "0"],
        ["--timeline-interval", "0.5"],
        ["--keyframe-every", "3"],
        ["--fingerprint-every", "64"],
    ],
    ids=[
        "fingerprint-every-0",
        "fingerprint-every-negative",
        "timeline-interval-0",
        "keyframe-every-0",
        "timeline-interval-without-timeline",
        "keyframe-every-without-timeline",
        "fingerprint-every-without-fingerprint",
    ],
)
def test_bad_or_orphaned_cadence_exits_two(tmp_path, capsys, tiny_fig4, flags):
    """A non-positive cadence, or a cadence flag without its instrument,
    is a configuration error — never silently replaced or ignored."""
    argv = ["fig4"] + [flag.format(tmp=tmp_path) for flag in flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert not list(tmp_path.iterdir())  # nothing ran, nothing written


def test_bare_timeline_on_figure_run_exits_two(capsys, scenario_fig4):
    """A figure run records its timeline to a file; a bare --timeline
    would record into memory and throw every record away."""
    assert main(["fig4", "--timeline"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "--timeline FILE" in err


def test_timeline_recording_removed_after_run(tmp_path, scenario_fig4):
    from repro.obs.config import active

    assert main(["fig4", "--timeline", str(tmp_path / "tl.jsonl")]) == 0
    assert active() is None


def _record_small_timeline(tmp_path):
    from repro.experiments.figures.common import (
        experiment_device_config,
        pdd_experiment,
    )
    from repro.experiments.scenario import build_grid_scenario
    from repro.obs.config import ObsConfig

    path = tmp_path / "tl.jsonl"
    config = ObsConfig(timeline=str(path), timeline_interval=0.5, keyframe_every=4)
    with config.activate():
        scenario = build_grid_scenario(
            rows=3, cols=3, seed=1, device_config=experiment_device_config()
        )
        pdd_experiment(1, metadata_count=100, scenario=scenario, sim_cap_s=20.0)
    return path


def test_inspect_timeline_views(tmp_path, capsys):
    path = _record_small_timeline(tmp_path)
    assert main(["inspect", str(path), "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "series lqt" in out
    assert main(["inspect", str(path), "--at", "5.0"]) == 0
    out = capsys.readouterr().out
    assert "state at t=5" in out
    assert main(["inspect", str(path), "--diff", "0", "5"]) == 0
    out = capsys.readouterr().out
    assert "diff t1=0 -> t2=5" in out


def test_inspect_timeline_at_out_of_range_exits_two(tmp_path, capsys):
    path = _record_small_timeline(tmp_path)
    assert main(["inspect", str(path), "--at", "-4"]) == 2
    assert "timeline error" in capsys.readouterr().out


def test_inspect_timeline_unknown_series_exits_two(tmp_path, capsys):
    path = _record_small_timeline(tmp_path)
    assert main(["inspect", str(path), "--timeline", "--series", "bogus"]) == 2
    assert "unknown series" in capsys.readouterr().out


def test_inspect_timeline_missing_file_errors(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nope.jsonl"), "--timeline"]) == 2
    assert "no such trace file" in capsys.readouterr().err
