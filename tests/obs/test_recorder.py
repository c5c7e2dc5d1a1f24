"""Flight recorder: codec, sampling, exactness, and zero perturbation.

The heart of this file is the exactness property test: during a real
discovery run a spy captures the live network state immediately after
every recorded sample, and each one must be reproducible bit-for-bit
from the timeline file alone — at keyframe positions and at delta
positions.  The other acceptance criterion covered here is
non-perturbation: a recorded run's experiment outcome equals the
unrecorded run's outcome on the same seed.
"""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments.figures.common import (
    experiment_device_config,
    pdd_experiment,
)
from repro.experiments.scenario import build_grid_scenario
from repro.obs.config import (
    DEFAULT_INTERVAL_S,
    DEFAULT_KEYFRAME_EVERY,
    ObsConfig,
    active,
)
from repro.obs.durable import DurableJsonlWriter
from repro.obs.recorder import (
    SEP,
    FlightRecorder,
    capture_network_state,
    flatten_state,
    unflatten_state,
)
from repro.obs.timeline import load_timeline, reconstruct_at


# ----------------------------------------------------------------------
# Flat-state codec
# ----------------------------------------------------------------------
def test_flatten_unflatten_round_trip():
    nested = {
        "nodes": {"3": {"lqt": {"disc": {"q1": 1.5}}, "cdi": {"size": 2}}},
        "net": {"airtime_s": 0.25},
    }
    flat = flatten_state(nested)
    assert flat[f"nodes{SEP}3{SEP}lqt{SEP}disc{SEP}q1"] == 1.5
    assert flat[f"net{SEP}airtime_s"] == 0.25
    assert unflatten_state(flat) == nested


def test_flatten_drops_empty_subdicts():
    # The flat form is canonical: empty branches carry no leaves, so
    # reconstruction equality is defined without them.
    flat = flatten_state({"a": {}, "b": {"c": {}, "d": 1}})
    assert flat == {f"b{SEP}d": 1}
    assert unflatten_state(flat) == {"b": {"d": 1}}


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def test_recording_config_validates():
    with pytest.raises(ConfigurationError):
        ObsConfig(timeline=True, timeline_interval=0)
    with pytest.raises(ConfigurationError):
        ObsConfig(timeline=True, keyframe_every=0)


def test_recording_context_scopes_config():
    assert active("timeline") is None
    config = ObsConfig(timeline=True, timeline_interval=0.5, keyframe_every=3)
    with config.activate() as obs:
        assert active("timeline") is obs
        assert obs.config.interval_s == 0.5
        assert obs.config.keyframe_cadence == 3
    assert active("timeline") is None


def test_obs_config_resolves_timeline_cadence(tmp_path):
    path = str(tmp_path / "tl.jsonl")
    config = ObsConfig(timeline=path, timeline_interval=0.25, keyframe_every=5)
    assert config.artifacts() == [("timeline", path)]
    assert config.interval_s == 0.25
    assert config.keyframe_cadence == 5
    # Path-like values are stored as plain strings.
    assert ObsConfig(timeline=tmp_path / "tl.jsonl") == ObsConfig(timeline=path)
    # Unset cadences resolve to the documented defaults.
    memory = ObsConfig(timeline=True)
    assert memory.artifacts() == []
    assert memory.interval_s == DEFAULT_INTERVAL_S
    assert memory.keyframe_cadence == DEFAULT_KEYFRAME_EVERY


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeline_interval", 0),
        ("timeline_interval", -1.0),
        ("keyframe_every", 0),
        ("keyframe_every", -3),
    ],
)
def test_obs_config_rejects_bad_timeline_values(field, value):
    with pytest.raises(ConfigurationError):
        ObsConfig(timeline=True, **{field: value})


@pytest.mark.parametrize("field", ["timeline_interval", "keyframe_every"])
def test_obs_config_rejects_timeline_cadence_without_timeline(field):
    with pytest.raises(ConfigurationError, match="needs --timeline"):
        ObsConfig(**{field: 2})


def test_activate_shadows_ambient_config(tmp_path):
    with ObsConfig(timeline=str(tmp_path / "tl.jsonl")).activate() as outer:
        with ObsConfig(fingerprint=True).activate() as inner:
            # The inner config replaces the outer one; it never merges.
            assert active("timeline") is None
            assert active("fingerprint") is inner
        assert active("timeline") is outer
        assert active("fingerprint") is None


def test_reshard_renames_path(tmp_path):
    config = ObsConfig(timeline=str(tmp_path / "tl.jsonl"), timeline_interval=0.5)
    worker = config.for_worker(3)
    assert worker.timeline == str(tmp_path / "tl.3.jsonl")
    assert worker.interval_s == 0.5
    # A memory-only timeline has no file to shard.
    assert ObsConfig(timeline=True).for_worker(3) == ObsConfig(timeline=True)


# ----------------------------------------------------------------------
# Timeline writer durability
# ----------------------------------------------------------------------
def test_writer_close_flushes_and_is_idempotent(tmp_path):
    path = tmp_path / "tl.jsonl"
    writer = DurableJsonlWriter(str(path))
    writer.write_doc({"rec": "meta", "run": 1})
    writer.close()
    writer.close()  # safe to call twice
    header, record = path.read_text().splitlines()
    assert "provenance" in json.loads(header)
    assert json.loads(record) == {"rec": "meta", "run": 1}
    writer.write_doc({"rec": "key"})  # post-close writes are dropped, not errors
    assert path.read_text().count("\n") == 2  # provenance header + record


def test_writer_context_manager(tmp_path):
    path = tmp_path / "tl.jsonl"
    with DurableJsonlWriter(str(path)) as writer:
        writer.write_doc({"rec": "meta"})
    lines = path.read_text().splitlines()
    assert "provenance" in json.loads(lines[0])
    assert lines[1].startswith('{"rec":"meta"}')


def test_writer_close_in_foreign_pid_keeps_file(tmp_path):
    # A writer inherited across fork must never flush the parent's buffer:
    # close() in a "different" process is a no-op that keeps the handle.
    writer = DurableJsonlWriter(str(tmp_path / "tl.jsonl"))
    writer._pid = os.getpid() + 1
    writer.close()
    assert writer._file is not None
    writer._pid = os.getpid()
    writer.close()


# ----------------------------------------------------------------------
# Sampling mechanics (memory-backed, synthetic scenario)
# ----------------------------------------------------------------------
def _memory_recorded_run(**kwargs):
    with ObsConfig(timeline=True, **kwargs).activate():
        scenario = build_grid_scenario(
            rows=3, cols=3, seed=1, device_config=experiment_device_config()
        )
        recorder = scenario.extras["recorder"]
        pdd_experiment(1, metadata_count=150, scenario=scenario, sim_cap_s=40.0)
    return scenario, recorder


def test_keyframe_cadence_and_delta_shape():
    _, recorder = _memory_recorded_run(timeline_interval=0.5, keyframe_every=4)
    records = recorder.records
    assert records[0]["rec"] == "meta"
    samples = records[1:]
    assert samples, "a recorded run must produce samples"
    for sample in samples:
        if sample["seq"] % 4 == 0:
            assert sample["rec"] == "key"
            assert "state" in sample
        else:
            assert sample["rec"] == "delta"
            assert "set" in sample and "del" in sample
    # Everything written must survive a JSON round trip (JSONL contract).
    assert json.loads(json.dumps(records)) == records


def test_round_boundaries_force_samples():
    _, recorder = _memory_recorded_run(timeline_interval=5.0)
    reasons = {record["by"] for record in recorder.records[1:]}
    assert "round_begin" in reasons
    assert "round_end" in reasons
    rounds = [
        record["round"]
        for record in recorder.records[1:]
        if record["by"] == "round_begin"
    ]
    assert rounds == sorted(rounds) and rounds[0] == 1


def test_stop_cancels_sampling():
    with ObsConfig(timeline=True, timeline_interval=0.5).activate():
        scenario = build_grid_scenario(
            rows=3, cols=3, seed=1, device_config=experiment_device_config()
        )
        recorder = scenario.extras["recorder"]
        recorder.stop()
        assert scenario.sim.recorder is None
        before = len(recorder.records)
        scenario.sim.run(until=5.0)
        assert len(recorder.records) == before


# ----------------------------------------------------------------------
# Zero-cost / zero-perturbation contract
# ----------------------------------------------------------------------
def test_unrecorded_scenarios_carry_no_recorder():
    scenario = build_grid_scenario(
        rows=3, cols=3, seed=1, device_config=experiment_device_config()
    )
    assert "recorder" not in scenario.extras
    assert scenario.sim.recorder is None


def test_observe_state_is_read_only():
    scenario = build_grid_scenario(
        rows=3, cols=3, seed=2, device_config=experiment_device_config()
    )
    pdd_experiment(2, metadata_count=150, scenario=scenario, sim_cap_s=40.0)
    first = capture_network_state(
        scenario.topology, scenario.medium, scenario.devices
    )
    second = capture_network_state(
        scenario.topology, scenario.medium, scenario.devices
    )
    assert flatten_state(first) == flatten_state(second)


def test_recorded_run_results_are_bit_identical():
    def run(record):
        if record:
            with ObsConfig(timeline=True, timeline_interval=0.5).activate():
                outcome = pdd_experiment(3, rows=3, cols=3, metadata_count=150)
        else:
            outcome = pdd_experiment(3, rows=3, cols=3, metadata_count=150)
        result = outcome.first
        return (
            result.recall,
            result.result.latency,
            outcome.total_overhead_bytes,
            result.result.rounds,
        )

    assert run(record=False) == run(record=True)


# ----------------------------------------------------------------------
# Exactness: reconstruction == live capture, at every sample
# ----------------------------------------------------------------------
def test_reconstruction_matches_live_state_at_every_sample(tmp_path):
    path = tmp_path / "tl.jsonl"
    live = []
    config = ObsConfig(timeline=str(path), timeline_interval=0.5, keyframe_every=4)
    with config.activate():
        scenario = build_grid_scenario(
            rows=3, cols=3, seed=1, device_config=experiment_device_config()
        )
        recorder = scenario.extras["recorder"]
        original = recorder.sample

        def spy(by="manual", round_index=None):
            doc = original(by=by, round_index=round_index)
            live.append(
                (
                    scenario.sim.now,
                    doc["seq"],
                    flatten_state(
                        capture_network_state(
                            scenario.topology, scenario.medium, scenario.devices
                        )
                    ),
                )
            )
            return doc

        recorder.sample = spy
        pdd_experiment(1, metadata_count=150, scenario=scenario, sim_cap_s=40.0)

    load = load_timeline(str(path))
    assert len(load.runs) == 1
    run = load.runs[0]

    # Several samples can share one sim time (round edges + interval);
    # reconstruct_at returns the *last* sample at <= t, so compare the
    # last live capture per distinct time.
    last_at_time = {}
    for t, seq, flat in live:
        last_at_time[t] = (seq, flat)
    assert len(last_at_time) >= 8, "need a spread of sample times"
    keyframe_hits = delta_hits = 0
    for t, (seq, flat) in last_at_time.items():
        sample_t, sample_seq, reconstructed = reconstruct_at(run, t)
        assert sample_t == t
        assert sample_seq == seq
        assert reconstructed == flat, f"mismatch at t={t} seq={seq}"
        if seq % 4 == 0:
            keyframe_hits += 1
        else:
            delta_hits += 1
    # The property must have been exercised on both record kinds.
    assert keyframe_hits > 0
    assert delta_hits > 0
