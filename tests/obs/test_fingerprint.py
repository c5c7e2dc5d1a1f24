"""Event-stream fingerprinting: canonical encoding, chaining, sharding.

The acceptance-critical properties live here: (1) the canonical encoding
never leaks object identity, so two processes fingerprinting the same
logical run agree; (2) fingerprinting is zero-perturbation — event order
and results are untouched; (3) a ``jobs=2`` campaign's merged shard
streams reconstruct the same combined digest as the serial campaign,
including when a killed worker leaves a truncated final line.
"""

import json
import multiprocessing
import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_sweep
from repro.obs.config import DEFAULT_CHECKPOINT_EVERY, ObsConfig, active
from repro.obs.fingerprint import (
    canon_value,
    handler_key,
    load_fingerprints,
)
from repro.sim.simulator import Simulator


# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------
def test_canon_value_scalars_are_reprs():
    assert canon_value(None) == "None"
    assert canon_value(True) == "True"
    assert canon_value(42) == "42"
    assert canon_value(0.25) == "0.25"
    assert canon_value("hi") == "'hi'"


def test_canon_value_containers_recurse_deterministically():
    assert canon_value([1, "a"]) == "[1,'a']"
    assert canon_value((1, "a")) == "[1,'a']"
    assert canon_value({"b": 2, "a": 1}) == "{'a':1,'b':2}"
    assert canon_value(frozenset({3, 1, 2})) == "{1,2,3}"


def test_canon_value_bytes_by_length_and_crc():
    one = canon_value(b"abc")
    assert one.startswith("bytes[3]#")
    assert canon_value(b"abd") != one


def test_canon_value_objects_contribute_class_not_identity():
    class Payload:
        pass

    # Two distinct instances (different memory addresses) encode equal,
    # by class qualname only.
    encoded = canon_value(Payload())
    assert encoded == canon_value(Payload())
    assert encoded.endswith(".Payload>")
    assert hex(id(Payload())) not in encoded


def test_canon_value_honors_fingerprint_method():
    class Keyed:
        def __init__(self, key):
            self.key = key

        def fingerprint(self):
            return self.key

    assert canon_value(Keyed(9)).endswith(".Keyed:9>")
    assert canon_value(Keyed(9)) != canon_value(Keyed(10))


def test_handler_key_unwraps_bound_methods():
    class Widget:
        def poke(self):
            pass

    key = handler_key(Widget().poke)
    assert key.endswith("Widget.poke")
    # Two instances' bound methods share one handler identity.
    assert key == handler_key(Widget().poke)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def test_config_validates_knobs():
    with pytest.raises(ConfigurationError):
        ObsConfig(fingerprint=True, fingerprint_every=0)
    with pytest.raises(ConfigurationError):
        ObsConfig(fingerprint=True, fingerprint_detail=(0, 5))
    with pytest.raises(ConfigurationError):
        ObsConfig(fingerprint=True, fingerprint_detail=(7, 3))


def test_fingerprinting_context_scopes_config():
    assert active("fingerprint") is None
    with ObsConfig(fingerprint=True, fingerprint_every=32).activate() as obs:
        assert active("fingerprint") is obs
    assert active("fingerprint") is None


def test_obs_config_resolves_fingerprint_settings(tmp_path):
    path = str(tmp_path / "fp.jsonl")
    config = ObsConfig(
        fingerprint=path, fingerprint_every=64, fingerprint_detail=[10, 20]
    )
    assert config.artifacts() == [("fingerprint", path)]
    assert config.checkpoint_every == 64
    assert config.fingerprint_detail == (10, 20)  # normalized to a tuple
    assert ObsConfig(fingerprint=True).checkpoint_every == (
        DEFAULT_CHECKPOINT_EVERY
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("fingerprint_every", 0),
        ("fingerprint_every", -16),
        ("fingerprint_detail", (0, 5)),
        ("fingerprint_detail", (9, 2)),
    ],
    ids=["every-0", "every-negative", "detail-lo-0", "detail-hi-below-lo"],
)
def test_obs_config_rejects_bad_fingerprint_values(tmp_path, field, value):
    with pytest.raises(ConfigurationError):
        ObsConfig(fingerprint=str(tmp_path / "fp.jsonl"), **{field: value})


@pytest.mark.parametrize("field", ["fingerprint_every", "fingerprint_detail"])
def test_obs_config_rejects_fingerprint_settings_without_fingerprint(field):
    value = 64 if field == "fingerprint_every" else (1, 2)
    with pytest.raises(ConfigurationError, match="needs --fingerprint"):
        ObsConfig(**{field: value})


def test_reshard_renames_path(tmp_path):
    config = ObsConfig(
        trace=str(tmp_path / "t.jsonl"),
        fingerprint=str(tmp_path / "fp.jsonl"),
        fingerprint_every=64,
    )
    worker = config.for_worker(2)
    assert worker.fingerprint == str(tmp_path / "fp.2.jsonl")
    assert worker.trace == str(tmp_path / "t.2.jsonl")
    assert worker.checkpoint_every == 64


# ----------------------------------------------------------------------
# Simulator integration (memory mode)
# ----------------------------------------------------------------------
def _tiny_sim_run(seed, events=40):
    """A deterministic toy workload: a chain of rng-timed hops."""
    rng = random.Random(seed)
    sim = Simulator()
    fired = []

    def hop(depth):
        fired.append((sim.now, depth))
        if depth < events - 1:
            sim.schedule(sim.now + rng.random(), hop, depth + 1)

    sim.schedule(0.0, hop, 0)
    sim.run()
    return fired


def _fingerprint_digest(seed, every=16):
    with ObsConfig(fingerprint=True, fingerprint_every=every).activate() as obs:
        _tiny_sim_run(seed)
        stream = obs.streams[-1]
        return stream.digest, list(stream.records)


def test_same_run_same_digest_across_invocations():
    digest_a, _ = _fingerprint_digest(1)
    digest_b, _ = _fingerprint_digest(1)
    assert digest_a == digest_b


def test_different_runs_different_digests():
    assert _fingerprint_digest(1)[0] != _fingerprint_digest(2)[0]


def test_checkpoint_cadence_and_closing_checkpoint():
    _, records = _fingerprint_digest(1, every=16)
    assert records[0]["fp"] == "meta"
    assert records[0]["every"] == 16
    checkpoints = [rec for rec in records if rec["fp"] == "ckpt"]
    # 40 events at cadence 16: checkpoints at 16, 32, closing at 40.
    assert [rec["i"] for rec in checkpoints] == [16, 32, 40]
    for rec in checkpoints:
        assert set(rec) >= {"run", "i", "digest", "t", "seq", "h"}
    # Chained digests: successive checkpoints must differ.
    digests = [rec["digest"] for rec in checkpoints]
    assert len(set(digests)) == len(digests)


def test_detail_window_emits_per_event_records():
    config = ObsConfig(
        fingerprint=True, fingerprint_every=16, fingerprint_detail=(3, 5)
    )
    with config.activate() as obs:
        _tiny_sim_run(1)
        records = obs.streams[-1].records
    events = [rec for rec in records if rec["fp"] == "event"]
    assert [rec["i"] for rec in events] == [3, 4, 5]
    for rec in events:
        assert set(rec) >= {"t", "prio", "seq", "h", "args", "digest"}
        assert "hop" in rec["h"]


def test_fingerprinting_does_not_perturb_the_run():
    plain = _tiny_sim_run(3)
    with ObsConfig(fingerprint=True, fingerprint_every=8).activate():
        fingerprinted = _tiny_sim_run(3)
    assert fingerprinted == plain


def test_disabled_fingerprint_keeps_simulator_clean():
    sim = Simulator()
    sim.schedule(0.0, lambda: None)
    sim.run()
    assert sim._fingerprint is None


# ----------------------------------------------------------------------
# File mode + loading
# ----------------------------------------------------------------------
def test_file_mode_streams_and_loads(tmp_path):
    path = tmp_path / "fp.jsonl"
    with ObsConfig(fingerprint=str(path), fingerprint_every=16).activate():
        _tiny_sim_run(1)
    first = json.loads(path.read_text().splitlines()[0])
    assert "provenance" in first and "repro_version" in first
    # Fingerprint files record their own configuration in the header.
    assert first["fingerprint"]["checkpoint_every"] == 16
    load = load_fingerprints(str(path))
    assert len(load.runs) == 1
    run = load.runs[0]
    assert run.meta["every"] == 16
    assert run.total_events == 40
    assert run.final_digest == run.checkpoints[-1]["digest"]
    assert load.skipped_lines == 0


def test_loader_skips_truncated_tail_line(tmp_path):
    path = tmp_path / "fp.jsonl"
    with ObsConfig(fingerprint=str(path), fingerprint_every=16).activate():
        _tiny_sim_run(1)
    reference = load_fingerprints(str(path))
    # A killed worker leaves a half-written final line.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"fp":"ckpt","run":1,"i":999,"dig')
    damaged = load_fingerprints(str(path))
    assert damaged.skipped_lines == 1
    assert damaged.combined_digest() == reference.combined_digest()


# ----------------------------------------------------------------------
# Parallel parity (satellite: jobs=2 shards reconstruct the serial digest)
# ----------------------------------------------------------------------
def _fp_trial(point, seed):
    _tiny_sim_run(seed, events=40)
    return {"seed": seed}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fingerprint shards need fork",
)
def test_parallel_shards_reconstruct_serial_combined_digest(tmp_path):
    serial_path = tmp_path / "serial.jsonl"
    config = ObsConfig(fingerprint=str(serial_path), fingerprint_every=16)
    with config.activate():
        for seed in (1, 2, 3, 4):
            _fp_trial({}, seed)
    serial = load_fingerprints(str(serial_path))
    assert len(serial.runs) == 4

    parallel_path = tmp_path / "parallel.jsonl"
    config = ObsConfig(fingerprint=str(parallel_path), fingerprint_every=16)
    with config.activate():
        run_sweep(_fp_trial, [{}], seeds=[1, 2, 3, 4], jobs=2)
    assert active("fingerprint") is None

    merged = load_fingerprints(str(parallel_path))
    assert len(merged.paths) >= 2  # per-worker shards
    assert len(merged.runs) == 4
    # Which shard each run landed in is scheduler-dependent; the *set* of
    # per-run chained digests is not.
    assert merged.combined_digest() == serial.combined_digest()

    # A truncated tail on one shard (killed worker) must not break the
    # reconstruction: the half-written record is skipped, the closing
    # checkpoints of completed runs still carry their digests.
    with open(merged.paths[0], "a", encoding="utf-8") as handle:
        handle.write('{"fp":"ckpt","run":9')
    damaged = load_fingerprints(str(parallel_path))
    assert damaged.skipped_lines == 1
    assert damaged.combined_digest() == serial.combined_digest()


def test_memory_config_cannot_cross_process_boundary():
    with ObsConfig(fingerprint=True).activate():
        with pytest.raises(ConfigurationError, match="in-memory fingerprint"):
            run_sweep(_fp_trial, [{}], seeds=[1, 2], jobs=2)
