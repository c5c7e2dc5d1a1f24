"""Unit tests for trace inspection (`repro inspect`)."""

from repro.experiments.figures.common import experiment_device_config, pdd_experiment
from repro.experiments.scenario import build_grid_scenario
from repro.obs.inspect import inspect_file, render, summarize
from repro.obs.trace import JsonlSink, ListSink, TraceBus


def _sample_events():
    return [
        {"t": 0.0, "kind": "frame_sent", "run": 1, "node": 1,
         "frame_kind": "query", "size": 100},
        {"t": 0.1, "kind": "frame_sent", "run": 1, "node": 2,
         "frame_kind": "response", "size": 900},
        {"t": 0.2, "kind": "frame_lost", "run": 1, "node": 3,
         "reason": "collision"},
        {"t": 0.3, "kind": "retransmit", "run": 1, "node": 2},
        {"t": 0.4, "kind": "abandon", "run": 2, "node": 2},
        {"t": 0.5, "kind": "sim_run_end", "run": 2, "processed": 5},
    ]


def test_summarize_aggregates():
    summary = summarize(_sample_events())
    assert summary["total"] == 6
    assert summary["by_kind"]["frame_sent"] == 2
    assert summary["by_node"] == {1: 1, 2: 3, 3: 1}
    assert summary["frames"] == {
        "query": {"frames": 1, "bytes": 100},
        "response": {"frames": 1, "bytes": 900},
    }
    assert summary["losses"] == {"collision": 1}
    assert summary["retransmits"] == 1
    assert summary["abandons"] == 1
    # Runs are keyed by (shard, run) scope; these events carry no shard.
    assert summary["runs"][("", 1)]["events"] == 4
    assert summary["runs"][("", 2)]["t_min"] == 0.4
    assert summary["runs"][("", 2)]["t_max"] == 0.5


def test_render_report_sections():
    text = render(_sample_events(), top_nodes=2)
    assert "6 events across 2 simulation run(s)" in text
    assert "events by kind:" in text
    assert "on-air frames by message kind:" in text
    assert "1000 bytes" in text  # TOTAL row: 100 + 900
    assert "lost (collision): 1" in text
    assert "busiest nodes (top 2):" in text
    # top-2 cut: node 1 (1 event) ties node 3 but only two rows print
    assert text.count("node ") == 2


def test_runs_are_counted_per_shard():
    """Every worker shard numbers its runs from 1, so run 1 of two shards
    is two simulation runs."""
    events = [
        {"t": 0.0, "kind": "x", "run": 1, "shard": "t.0.jsonl"},
        {"t": 0.1, "kind": "x", "run": 1, "shard": "t.1.jsonl"},
        {"t": 0.2, "kind": "x", "run": 2, "shard": "t.1.jsonl"},
    ]
    assert len(summarize(events)["runs"]) == 3
    text = render(events)
    assert "3 events across 3 simulation run(s)" in text
    assert "  t.1.jsonl run 2: 1 events" in text


def test_render_empty_trace():
    assert render([]) == "trace: empty (no events)"


def test_inspect_file_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    bus = TraceBus(clock=lambda: 1.0, run_id=3)
    with JsonlSink(str(path)) as sink:
        bus.subscribe(sink)
        bus.emit("frame_sent", node=5, frame_kind="ack", size=48)
    report = inspect_file(str(path))
    assert "1 events across 1 simulation run(s)" in report
    assert "ack" in report
    assert "48 bytes" in report


def test_resends_split_first_sends_retransmissions_and_duplicates():
    events = [
        {"t": 0.0, "kind": "frame_sent", "run": 1, "node": 1, "frame_id": 7,
         "frame_kind": "query", "size": 100, "retx": 0},
        {"t": 0.1, "kind": "frame_delivered", "run": 1, "node": 2, "frame_id": 7,
         "frame_kind": "query", "size": 100},
        {"t": 0.2, "kind": "frame_sent", "run": 1, "node": 1, "frame_id": 7,
         "frame_kind": "query", "size": 100, "retx": 1},
        {"t": 0.3, "kind": "frame_delivered", "run": 1, "node": 2, "frame_id": 7,
         "frame_kind": "query", "size": 100},
        {"t": 0.3, "kind": "frame_delivered", "run": 1, "node": 3, "frame_id": 7,
         "frame_kind": "query", "size": 100},
        # Frame ids restart per run: run 2's frame 7 is a new frame.
        {"t": 0.0, "kind": "frame_delivered", "run": 2, "node": 2, "frame_id": 7,
         "frame_kind": "query", "size": 100},
    ]
    summary = summarize(events)
    assert summary["frames"] == {"query": {"frames": 2, "bytes": 200}}
    assert summary["resends"] == {
        "query": {
            "first_frames": 1,
            "first_bytes": 100,
            "retx_frames": 1,
            "retx_bytes": 100,
            "receptions": 4,
            "duplicates": 1,
        }
    }
    text = render(events)
    assert "first sends, retransmissions and duplicate receptions" in text


def test_resends_reconcile_with_a_lossy_traced_run():
    scenario = build_grid_scenario(
        rows=3, cols=3, seed=1, device_config=experiment_device_config()
    )
    sink = scenario.sim.trace.subscribe(ListSink())
    pdd_experiment(1, metadata_count=200, scenario=scenario, sim_cap_s=60.0)
    events = [event.to_json_dict() for event in sink.events]
    summary = summarize(events)
    stats = scenario.stats
    assert stats.frames_lost_random > 0, "the run must lose frames"
    resends = summary["resends"]
    for frame_kind, bucket in summary["frames"].items():
        split = resends[frame_kind]
        assert split["first_frames"] + split["retx_frames"] == bucket["frames"]
        assert split["first_bytes"] + split["retx_bytes"] == bucket["bytes"]
    sent = [e for e in events if e["kind"] == "frame_sent"]
    assert sum(s["retx_frames"] for s in resends.values()) == sum(
        1 for e in sent if e["retx"] > 0
    )
    assert sum(s["retx_frames"] for s in resends.values()) > 0
    delivered = [e for e in events if e["kind"] == "frame_delivered"]
    assert sum(s["receptions"] for s in resends.values()) == stats.frames_delivered
    distinct = {(e["node"], e["frame_id"]) for e in delivered}
    duplicates = sum(s["duplicates"] for s in resends.values())
    assert duplicates == len(delivered) - len(distinct) > 0
