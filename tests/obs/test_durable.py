"""The shared JSONL artifact layer: shard naming, reading, clean-up.

Trace, timeline and fingerprint files all go through
:mod:`repro.obs.durable`, so these cases pin the rules all three rely
on: the reader finds exactly the shards the writer names, bookkeeping
lines never reach a loader, and an activation starts from no earlier
file or shard.
"""

import os

from repro.obs.config import ObsConfig
from repro.obs.durable import (
    JsonlArtifact,
    JsonlRecords,
    resolve_trace_paths,
    shard_path,
)


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


def test_activation_deletes_the_artifact_and_its_shards(tmp_path):
    """A timeline opens lazily, so after an empty activation nothing of
    an earlier serial or parallel run is left to merge with."""
    names = ("tl.jsonl", "tl.0.jsonl", "tl.7.jsonl", "tlx.0.jsonl", "tl.1a.jsonl")
    for name in names:
        (tmp_path / name).write_text('{"provenance":1}\n')
    with ObsConfig(timeline=str(tmp_path / "tl.jsonl")).activate():
        pass
    assert sorted(os.listdir(tmp_path)) == ["tl.1a.jsonl", "tlx.0.jsonl"]
