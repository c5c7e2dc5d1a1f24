"""Artifacts written before the event kernel lost its scheduler choice.

Older provenance headers and fingerprint ``meta`` records carry a
``"scheduler"`` field.  New files do not, and every loader must still
read the old ones exactly as it reads new ones.
"""

import json
import os

from repro.experiments.figures.common import pdd_experiment
from repro.obs.config import ObsConfig
from repro.obs.durable import provenance_doc
from repro.obs.fingerprint import load_fingerprints
from repro.obs.spans import load_trace
from repro.obs.timeline import load_timeline


def _write_artifacts(directory):
    paths = {
        name: os.path.join(directory, f"{name}.jsonl")
        for name in ("trace", "timeline", "fingerprint")
    }
    config = ObsConfig(
        trace=paths["trace"],
        timeline=paths["timeline"],
        fingerprint=paths["fingerprint"],
        fingerprint_every=64,
    )
    with config.activate():
        pdd_experiment(seed=1, rows=3, cols=3, metadata_count=12)
    return paths


def _with_old_scheduler_field(path, old_dir):
    """Copy ``path`` into ``old_dir`` as an older build would have written it."""
    out = os.path.join(old_dir, os.path.basename(path))
    with open(path, encoding="utf-8") as src, open(out, "w", encoding="utf-8") as dst:
        for line in src:
            record = json.loads(line)
            if "provenance" in record or record.get("fp") == "meta":
                record["scheduler"] = "heap"
            dst.write(json.dumps(record) + "\n")
    return out


def test_new_artifacts_carry_no_scheduler_field(tmp_path):
    assert "scheduler" not in provenance_doc()
    paths = _write_artifacts(str(tmp_path))
    for path in paths.values():
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert "provenance" in header and "scheduler" not in header
    for run in load_fingerprints(paths["fingerprint"]).runs:
        assert run.meta["fp"] == "meta" and "scheduler" not in run.meta


def test_loaders_read_files_carrying_the_old_scheduler_field(tmp_path):
    new_dir = tmp_path / "new"
    old_dir = tmp_path / "old"
    new_dir.mkdir()
    old_dir.mkdir()
    paths = _write_artifacts(str(new_dir))
    old = {
        name: _with_old_scheduler_field(path, str(old_dir))
        for name, path in paths.items()
    }

    new_trace, old_trace = load_trace(paths["trace"]), load_trace(old["trace"])
    assert new_trace.events
    assert old_trace.events == new_trace.events
    assert old_trace.skipped_lines == new_trace.skipped_lines == 0

    new_tl, old_tl = load_timeline(paths["timeline"]), load_timeline(old["timeline"])
    assert new_tl.runs
    assert [run.records for run in old_tl.runs] == [
        run.records for run in new_tl.runs
    ]
    assert old_tl.skipped_lines == new_tl.skipped_lines

    new_fp = load_fingerprints(paths["fingerprint"])
    old_fp = load_fingerprints(old["fingerprint"])
    assert new_fp.runs
    assert old_fp.combined_digest() == new_fp.combined_digest()
    assert [run.checkpoints for run in old_fp.runs] == [
        run.checkpoints for run in new_fp.runs
    ]
    assert old_fp.skipped_lines == new_fp.skipped_lines == 0
    assert all(run.meta["scheduler"] == "heap" for run in old_fp.runs)
