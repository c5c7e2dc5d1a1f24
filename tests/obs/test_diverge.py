"""First-divergence bisection: spec parsing, O(log) search, localization.

The acceptance-critical case is the end-to-end drill: inject a single
perturbed RNG draw (``session-jitter:0`` flips the first session-launch
jitter draw, which feeds a scheduled event *time* directly) and the
engine must localize the divergence to the exact first divergent event —
``(time, seq, handler)`` — within ``1 + ceil(log2(checkpoints))``
checkpoint comparisons.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.diverge import (
    ScenarioSpec,
    SideSpec,
    bisect_checkpoints,
    diverge,
    expected_comparisons,
    first_divergent_event,
    pair_runs,
    suggest_command,
)
from repro.obs.fingerprint import FingerprintRun


# ----------------------------------------------------------------------
# Side-spec parsing
# ----------------------------------------------------------------------
def test_side_spec_parses_run_options():
    spec = SideSpec.parse("a", "jobs=4,perturb=medium:40")
    assert spec.jobs == 4
    assert spec.perturb == "medium:40"
    assert spec.describe() == "jobs=4,perturb=medium:40"


def test_side_spec_rejects_retired_profile_key():
    with pytest.raises(ConfigurationError, match="jobs/perturb/file"):
        SideSpec.parse("a", "profile=1")


def test_side_spec_empty_means_defaults():
    spec = SideSpec.parse("a", "")
    assert spec.describe() == "jobs=1"


def test_side_spec_parses_file():
    spec = SideSpec.parse("b", "file=fp_base.jsonl")
    assert spec.file == "fp_base.jsonl"
    assert spec.describe() == "file=fp_base.jsonl"


@pytest.mark.parametrize(
    "raw",
    [
        "bogus=1",
        "jobs=none",
        "jobs=0",
        "scheduler",  # not a side option (one event kernel)
        "file=x.jsonl,jobs=2",  # recorded stream + run options
    ],
)
def test_side_spec_rejects_malformed(raw):
    with pytest.raises(ConfigurationError):
        SideSpec.parse("a", raw)


# ----------------------------------------------------------------------
# Bisection over synthetic checkpoint streams
# ----------------------------------------------------------------------
def _synthetic_run(digests, every=10):
    """A FingerprintRun whose checkpoint i*every carries digests[i]."""
    run = FingerprintRun(scope=("test", 1))
    for index, digest in enumerate(digests, start=1):
        run.checkpoints.append(
            {
                "fp": "ckpt",
                "run": 1,
                "i": index * every,
                "digest": digest,
                "t": float(index),
                "seq": index,
                "h": "handler",
            }
        )
    return run


def test_bisect_identical_streams_is_one_comparison():
    run_a = _synthetic_run(["d1", "d2", "d3", "d4"])
    run_b = _synthetic_run(["d1", "d2", "d3", "d4"])
    result = bisect_checkpoints(run_a, run_b)
    assert result.kind == "none"
    assert result.comparisons == 1  # the last common checkpoint settles it


def test_bisect_finds_first_divergent_checkpoint_in_log_comparisons():
    n = 64
    for first_bad in (1, 7, 31, 63):
        clean = [f"d{i}" for i in range(n)]
        dirty = clean[:first_bad] + [f"x{i}" for i in range(first_bad, n)]
        result = bisect_checkpoints(
            _synthetic_run(clean), _synthetic_run(dirty)
        )
        assert result.kind == "checkpoint"
        assert result.first_divergent == (first_bad + 1) * 10
        assert result.last_common == first_bad * 10
        assert result.comparisons <= expected_comparisons(n)
        assert result.checkpoint_a["digest"] == f"d{first_bad}"
        assert result.checkpoint_b["digest"] == f"x{first_bad}"


def test_bisect_tail_divergence():
    run_a = _synthetic_run(["d1", "d2"])
    run_b = _synthetic_run(["d1", "d2", "d3"])
    result = bisect_checkpoints(run_a, run_b)
    assert result.kind == "tail"
    assert result.last_common == 20


def test_expected_comparisons_is_log2():
    assert expected_comparisons(1) == 1
    assert expected_comparisons(2) == 2
    assert expected_comparisons(64) == 1 + math.ceil(math.log2(64)) == 7


# ----------------------------------------------------------------------
# Run pairing
# ----------------------------------------------------------------------
class _Load:
    def __init__(self, runs):
        self.runs = runs


def test_pair_runs_matches_by_final_digest_across_order():
    a1 = _synthetic_run(["p", "q"])
    a2 = _synthetic_run(["r", "s"])
    b_load = _Load([_synthetic_run(["r", "s"]), _synthetic_run(["p", "q"])])
    pairs = pair_runs(_Load([a1, a2]), b_load)
    assert [(x is a1, y.final_digest) for x, y in pairs] == [
        (True, "q"),
        (False, "s"),
    ]


def test_pair_runs_pairs_divergent_by_longest_prefix():
    a = _synthetic_run(["p", "q", "z"])  # diverges from both b runs
    b_close = _synthetic_run(["p", "q", "y"])  # agrees through 2 ckpts
    b_far = _synthetic_run(["w", "x", "y2"])  # agrees through 0
    pairs = pair_runs(_Load([a]), _Load([b_far, b_close]))
    matched = next(pair for pair in pairs if pair[0] is a)
    assert matched[1] is b_close
    # The unmatched leftover pairs with None.
    assert (None, b_far) in pairs


# ----------------------------------------------------------------------
# Event-level localization over synthetic detail records
# ----------------------------------------------------------------------
def _event(i, t, digest, **over):
    rec = {
        "fp": "event",
        "i": i,
        "t": t,
        "prio": 0,
        "seq": i,
        "h": "mod.handler",
        "args": [],
        "digest": digest,
    }
    rec.update(over)
    return rec


def test_first_divergent_event_names_fields_and_context():
    events_a = [_event(i, 0.1 * i, f"d{i}") for i in range(1, 8)]
    events_b = [
        _event(i, 0.1 * i, f"d{i}") if i < 5 else _event(i, 9.9, f"x{i}")
        for i in range(1, 8)
    ]
    found = first_divergent_event(events_a, events_b, (1, 7), context=2)
    assert found is not None
    assert found.index == 5
    assert found.fields == ["t"]
    assert [rec["i"] for rec in found.context_a] == [3, 4]


def test_first_divergent_event_digest_catches_payload_only_changes():
    # Identity fields equal, payload (and hence chained digest) differs.
    events_a = [_event(1, 0.1, "d1"), _event(2, 0.2, "d2", args=["'x'"])]
    events_b = [_event(1, 0.1, "d1"), _event(2, 0.2, "e2", args=["'y'"])]
    found = first_divergent_event(events_a, events_b, (1, 2), context=1)
    assert found.index == 2
    assert found.fields == ["args"]


def test_first_divergent_event_none_when_equal():
    events = [_event(i, 0.1 * i, f"d{i}") for i in range(1, 5)]
    assert first_divergent_event(events, events, (1, 4), context=2) is None


# ----------------------------------------------------------------------
# End-to-end: clean parity and injected-draw localization
# ----------------------------------------------------------------------
_SMALL = ScenarioSpec(
    seeds=(1,), rows=4, cols=4, metadata_count=120, max_rounds=2,
    sim_cap_s=120.0,
)


def test_diverge_clean_when_sides_agree(tmp_path):
    report = diverge(
        SideSpec.parse("a", ""),
        SideSpec.parse("b", ""),
        scenario=_SMALL,
        checkpoint_every=256,
        workdir=str(tmp_path),
    )
    assert not report.diverged
    assert report.clean_pairs == 1
    assert "no divergence" in report.render()


def test_diverge_clean_between_serial_and_two_workers(tmp_path):
    report = diverge(
        SideSpec.parse("a", ""),
        SideSpec.parse("b", "jobs=2"),
        scenario=_SMALL,
        checkpoint_every=256,
        workdir=str(tmp_path),
    )
    assert not report.diverged
    assert report.clean_pairs == 1
    assert "no divergence" in report.render()


def test_diverge_localizes_injected_draw_flip(tmp_path):
    report = diverge(
        SideSpec.parse("a", ""),
        SideSpec.parse("b", "perturb=session-jitter:0"),
        scenario=_SMALL,
        checkpoint_every=256,
        workdir=str(tmp_path),
    )
    assert report.diverged
    div = report.divergence
    # O(log) bound: never more than 1 + ceil(log2(#checkpoints)).  The
    # 4x4 scenario fires ~1.6k events, i.e. ~7 checkpoints at cadence 256.
    assert div.comparisons <= expected_comparisons(math.ceil(2000 / 256))
    # The flipped draw feeds the session-launch delay, so the first
    # divergent event is the launch callback with only its *time* skewed.
    event = report.event
    assert event is not None
    assert event.fields == ["t"]
    assert "launch" in event.event_a["h"]
    assert event.event_a["seq"] == event.event_b["seq"]
    assert event.event_a["t"] != event.event_b["t"]
    # The draw ledger names the culprit stream: counts match everywhere
    # (one flip, no consumption skew), values differ on session-jitter.
    assert report.ledger_skews == []
    assert report.stream_skews == ["session-jitter"]
    rendered = report.render()
    assert "first divergent event" in rendered
    assert "session-jitter" in rendered
    json_doc = report.to_json()
    assert json_doc["diverged"] is True
    assert json_doc["event"]["fields"] == ["t"]


def test_diverge_against_recorded_file(tmp_path):
    # Record side A once, then compare a perturbed execution against the
    # *file* — the "baseline from another git revision" workflow.
    baseline = diverge(
        SideSpec.parse("a", ""),
        SideSpec.parse("b", ""),
        scenario=_SMALL,
        checkpoint_every=256,
        workdir=str(tmp_path),
    )
    assert not baseline.diverged
    recorded = str(tmp_path / "side_a.jsonl")
    report = diverge(
        SideSpec.parse("a", f"file={recorded}"),
        SideSpec.parse("b", "perturb=session-jitter:0"),
        scenario=_SMALL,
        checkpoint_every=256,
        workdir=str(tmp_path / "vs_file"),
    )
    assert report.diverged
    assert report.divergence.kind == "checkpoint"


def test_suggest_command_is_ready_to_paste():
    command = suggest_command("", "perturb=medium:40", _SMALL)
    assert command.startswith("python -m repro diverge")
    assert "--a '' --b 'perturb=medium:40'" in command
    assert "--rows 4 --cols 4" in command


def test_diverge_cli_rejects_bad_spec():
    from repro.divergecli import main

    assert main(["--a", "bogus=1", "--b", ""]) == 2
