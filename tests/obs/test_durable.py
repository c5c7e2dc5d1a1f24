"""The shared JSONL artifact layer: shard naming, reading, sanitization.

Trace, timeline and fingerprint files all go through
:mod:`repro.obs.durable`, so these cases pin the rules all three rely
on: the reader finds exactly the shards the writer names, bookkeeping
lines never reach a loader, and post-campaign sanitization keeps only
committed attempts.
"""

import json

from repro.obs.durable import (
    JsonlArtifact,
    JsonlRecords,
    resolve_trace_paths,
    sanitize_shards,
    shard_path,
)


def _lines(path, docs):
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))


def test_resolver_finds_exactly_the_shards_the_writer_names(tmp_path):
    base = str(tmp_path / "tl.jsonl")
    assert shard_path(base, 3) == str(tmp_path / "tl.3.jsonl")
    for index in (0, 1, 10):
        JsonlArtifact(shard_path(base, index)).writer().close()
    # Not shards of ``tl.jsonl``: another stem, a non-integer index.
    (tmp_path / "tlx.0.jsonl").write_text("")
    (tmp_path / "tl.1a.jsonl").write_text("")
    assert resolve_trace_paths(base) == [
        shard_path(base, index) for index in (0, 1, 10)
    ]


def test_records_skip_bookkeeping_and_count_bad_lines(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(
        '{"provenance":1}\n'
        '{"kind":"x","run":1}\n'
        "\n"
        '{"attempt":"commit","label":"seed 1"}\n'
        "[1, 2]\n"
        '{"kind":"x","run":1}\n'
        '{"kind":"y","tru'
    )
    records = JsonlRecords([str(path)])
    assert list(records) == [("a.jsonl", {"kind": "x", "run": 1})] * 2
    assert (records.skipped, records.duplicates) == (2, 0)
    deduped = JsonlRecords([str(path)], dedupe=True)
    assert len(list(deduped)) == 1
    assert (deduped.skipped, deduped.duplicates) == (2, 1)


def test_attempt_marker_never_opens_an_idle_shard(tmp_path):
    artifact = JsonlArtifact(str(tmp_path / "fp.0.jsonl"))
    artifact.mark_attempt("commit", "seed 1")
    assert not (tmp_path / "fp.0.jsonl").exists()
    artifact.writer().write_doc({"fp": "meta"})
    artifact.mark_attempt("commit", "seed 1")
    artifact.close()
    lines = (tmp_path / "fp.0.jsonl").read_text().splitlines()
    assert json.loads(lines[-1]) == {"attempt": "commit", "label": "seed 1"}


def test_sanitize_keeps_first_committed_attempt_and_drops_stale_shards(tmp_path):
    base = tmp_path / "t.jsonl"
    header = {"provenance": 1}
    _lines(tmp_path / "t.0.jsonl", [
        header,
        {"seed": 1},
        {"attempt": "commit", "label": "seed 1"},
        {"seed": 2},
        {"attempt": "abort", "label": "seed 2"},
        {"seed": 3},  # unterminated: the worker died here
    ])
    _lines(tmp_path / "t.1.jsonl", [
        header,
        {"seed": 1},  # re-run of an already committed trial
        {"attempt": "commit", "label": "seed 1"},
        {"seed": 2},
        {"attempt": "commit", "label": "seed 2"},
    ])
    _lines(tmp_path / "t.2.jsonl", [header, {"seed": 9}])  # earlier campaign
    sanitize_shards(str(base), 2)
    assert not (tmp_path / "t.2.jsonl").exists()
    kept = [
        json.loads(line)
        for name in ("t.0.jsonl", "t.1.jsonl")
        for line in (tmp_path / name).read_text().splitlines()
    ]
    assert kept == [header, {"seed": 1}, header, {"seed": 2}]
