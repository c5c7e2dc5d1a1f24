"""Campaign-store unit tests: keys, round-trips, corruption, gc.

The store's whole contract is "a digest has exactly one correct
content", so the tests lean on two properties: key derivation must be
stable across processes yet distinct across inputs, and anything less
than a complete, self-consistent entry must read as a cache miss.
"""

import json
import math
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.experiments.metrics import TrialFailure
from repro.experiments.runner import run_sweep
from repro.experiments.store import (
    CampaignStore,
    canonical_params,
    resolve_store,
    task_digest,
)


@dataclass(frozen=True)
class _Spec:
    name: str
    scale: float


def _trial(seed):
    return {"score": seed * 10}


def _other_trial(seed):
    return {"score": seed * 10}


def _metrics_trial(point, seed):
    return {
        "recall": 1.0,
        "latency_s": float(seed),
        "overhead_bytes": seed * 100 * point["scale"],
        "extras": {"note": "kept"},
    }


_POINT = {"scale": 1}


def _one_point(seeds, **kwargs):
    """``_metrics_trial`` over ``seeds`` as a one-point sweep."""
    (point,) = run_sweep(_metrics_trial, [_POINT], seeds=seeds, jobs=1, **kwargs)
    return point


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
def test_digest_is_stable_and_input_sensitive():
    base = task_digest(_trial, (3,))
    assert base == task_digest(_trial, (3,))  # pure function of inputs
    assert base != task_digest(_trial, (4,))  # seed is key material
    assert base != task_digest(_other_trial, (3,))  # trial identity too
    point = {"size": 5}
    assert task_digest(_trial, (point, 3)) != task_digest(
        _trial, ({"size": 7}, 3)
    )


def test_canonical_params_dict_order_invariant():
    a = canonical_params({"x": 1, "y": 2.5})
    b = canonical_params({"y": 2.5, "x": 1})
    assert a == b


def test_canonical_params_distinguishes_close_values():
    assert canonical_params(1) != canonical_params(1.0)
    assert canonical_params("1") != canonical_params(1)
    assert canonical_params(True) != canonical_params(1)


def test_canonical_params_dataclass_fields():
    spec = _Spec(name="center", scale=1.5)
    text = canonical_params(spec)
    assert "center" in text and "1.5" in text
    assert text != canonical_params(_Spec(name="center", scale=2.0))


def test_canonical_params_rejects_opaque_objects():
    class Opaque:
        pass

    with pytest.raises(ConfigurationError):
        canonical_params({"handle": Opaque()})


def test_canonical_params_store_key_protocol():
    class Keyed:
        def store_key(self):
            return ("v1", 7)

    first = canonical_params(Keyed())
    assert first == canonical_params(Keyed())  # identity never leaks
    assert "7" in first


# ----------------------------------------------------------------------
# Entry round-trips and corruption handling
# ----------------------------------------------------------------------
def test_put_get_roundtrip_dict(tmp_path):
    store = CampaignStore(str(tmp_path / "store"))
    digest = task_digest(_trial, (3,))
    store.put_value(digest, "t", "seed 3", 3, {"score": 30})
    entry = store.get(digest)
    assert entry is not None and entry.ok
    assert entry.value == {"score": 30}
    assert entry.seed == 3
    assert digest in store


def test_truncated_entry_is_a_miss_not_a_crash(tmp_path):
    store = CampaignStore(str(tmp_path))
    digest = task_digest(_trial, (1,))
    store.put_value(digest, "t", "seed 1", 1, {"score": 10})
    path = store._entry_path(digest)
    with open(path, "r+", encoding="utf-8") as handle:
        handle.truncate(os.path.getsize(path) // 2)
    assert store.get(digest) is None
    assert store.corrupt_seen == 1


def test_digest_mismatch_never_trusted(tmp_path):
    store = CampaignStore(str(tmp_path))
    real = task_digest(_trial, (1,))
    store.put_value(real, "t", "seed 1", 1, {"score": 10})
    impostor = task_digest(_trial, (2,))
    os.makedirs(
        os.path.dirname(store._entry_path(impostor)), exist_ok=True
    )
    with open(store._entry_path(real), encoding="utf-8") as handle:
        doc = handle.read()
    with open(store._entry_path(impostor), "w", encoding="utf-8") as handle:
        handle.write(doc)
    assert store.get(impostor) is None  # embedded key disagrees
    assert store.corrupt_seen == 1


def test_failures_are_recorded_but_never_hits(tmp_path):
    store = CampaignStore(str(tmp_path))
    digest = task_digest(_trial, (2,))
    failure = TrialFailure(
        label="seed 2", seed=2, kind="crash", error="died", attempts=1
    )
    store.put_failure(digest, "t", failure)
    assert store.get(digest) is None  # resume re-runs the trial
    entry = store.get(digest, include_failures=True)
    assert entry is not None and not entry.ok
    assert entry.failure.kind == "crash"
    status = store.status()
    assert status["failed"] == 1 and status["ok"] == 0


def test_lossy_values_are_refused():
    from repro.experiments.store import _check_roundtrip

    with pytest.raises(ConfigurationError):
        _check_roundtrip({"pair": (1, 2)}, "t")  # tuple → list
    with pytest.raises(ConfigurationError):
        _check_roundtrip({"x": math.nan}, "t")  # NaN != NaN
    with pytest.raises(ConfigurationError):
        _check_roundtrip({"raw": b"bytes"}, "t")  # not JSON at all


def test_gc_removes_tmp_corrupt_and_optionally_failed(tmp_path):
    store = CampaignStore(str(tmp_path))
    ok_digest = task_digest(_trial, (1,))
    store.put_value(ok_digest, "t", "seed 1", 1, {"score": 10})
    bad_digest = task_digest(_trial, (2,))
    store.put_value(bad_digest, "t", "seed 2", 2, {"score": 20})
    bad_path = store._entry_path(bad_digest)
    with open(bad_path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    fail_digest = task_digest(_trial, (3,))
    store.put_failure(
        fail_digest,
        "t",
        TrialFailure(
            label="seed 3", seed=3, kind="error", error="x", attempts=2
        ),
    )
    tmp_leftover = os.path.join(tmp_path, "objects", "stale.tmp")
    with open(tmp_leftover, "w", encoding="utf-8"):
        pass

    removed = store.gc()
    assert removed == {"tmp": 1, "corrupt": 1, "failed": 0}
    assert store.get(ok_digest) is not None  # survivors untouched
    assert store.get(fail_digest, include_failures=True) is not None

    removed = store.gc(failed=True)
    assert removed["failed"] == 1
    assert store.get(fail_digest, include_failures=True) is None
    assert store.get(ok_digest) is not None


def test_foreign_schema_reads_as_miss(tmp_path):
    store = CampaignStore(str(tmp_path))
    digest = task_digest(_trial, (1,))
    store.put_value(digest, "t", "seed 1", 1, {"score": 10})
    path = store._entry_path(digest)
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["store"] = 999
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    assert store.get(digest) is None


def test_schema_1_entry_is_a_counted_miss_and_reexecutes(tmp_path):
    """Entries from before the scheduler left the key (schema 1) re-run."""
    store = CampaignStore(str(tmp_path))
    _one_point([1, 2], store=store)
    digests = [task_digest(_metrics_trial, (_POINT, seed)) for seed in (1, 2)]
    for digest in digests:
        path = store._entry_path(digest)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["store"] = 1
        doc["provenance"]["scheduler"] = "heap"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    store = CampaignStore(str(tmp_path))
    again = _one_point([1, 2], store=store)
    assert again.cache_hits == 0 and again.executed == 2
    assert store.corrupt_seen == 2
    # The re-executed trials are republished under the current schema.
    assert all(store.get(digest) is not None for digest in digests)


def test_entries_carry_no_metrics_and_older_metrics_keys_still_hit(tmp_path):
    """Entries hold no registry snapshot, even under ``metrics``; an
    entry written by an earlier build with a ``metrics`` key still hits."""
    from repro.obs.config import ObsConfig

    store = CampaignStore(str(tmp_path))
    with ObsConfig(metrics=True).activate():
        cold = _one_point([1, 2], store=store)
    digests = [task_digest(_metrics_trial, (_POINT, seed)) for seed in (1, 2)]
    for digest in digests:
        path = store._entry_path(digest)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert "metrics" not in doc
        doc["metrics"] = {"counters": {"net.frames_sent": 7}}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True)
    warm = _one_point([1, 2], store=CampaignStore(str(tmp_path)))
    assert warm.cache_hits == 2 and warm.executed == 0
    assert warm.results == cold.results


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def test_resolve_store_knob(tmp_path):
    assert resolve_store(None) is None
    explicit = resolve_store(str(tmp_path / "explicit"))
    assert explicit.root == str(tmp_path / "explicit")
    assert resolve_store(explicit) is explicit
    with pytest.raises(ConfigurationError):
        resolve_store(42)


# ----------------------------------------------------------------------
# run_sweep integration (serial; parallel resume is test_resume.py)
# ----------------------------------------------------------------------
def test_run_sweep_store_hits_on_second_run(tmp_path):
    store = CampaignStore(str(tmp_path))
    cold = _one_point([1, 2, 3], store=store)
    assert cold.cache_hits == 0 and cold.executed == 3
    warm = _one_point([1, 2, 3], store=store)
    assert warm.cache_hits == 3 and warm.executed == 0
    # Bit-identical values, nested dicts included.
    assert warm.results == cold.results
    assert warm.seeds == cold.seeds == (1, 2, 3)
    plain = _one_point([1, 2, 3])
    # Store-less sweeps carry no cache accounting.
    assert plain.cache_hits is None and plain.executed is None
    assert plain.results == cold.results


def test_run_sweep_resume_false_recomputes(tmp_path):
    store = CampaignStore(str(tmp_path))
    _one_point([1, 2], store=store)
    again = _one_point([1, 2], store=store, resume=False)
    assert again.cache_hits == 0 and again.executed == 2


# ----------------------------------------------------------------------
# Pinned keys: stores written by earlier builds must keep hitting
# ----------------------------------------------------------------------
@contextmanager
def _observability_profile(name, directory):
    """Activate one observability profile for the pinned-key test."""
    from repro.obs.config import ObsConfig

    configs = {
        "trace": ObsConfig(trace=os.path.join(directory, "t.jsonl")),
        "memory-timeline": ObsConfig(timeline=True),
        "file-timeline": ObsConfig(timeline=os.path.join(directory, "tl.jsonl")),
        "trace+timeline": ObsConfig(
            trace=os.path.join(directory, "t.jsonl"), timeline=True
        ),
        "fingerprint": ObsConfig(
            fingerprint=os.path.join(directory, "fp.jsonl")
        ),
        "metrics+memory": ObsConfig(metrics=True, memory=True),
    }
    with ExitStack() as stack:
        if name in configs:
            stack.enter_context(configs[name].activate())
        yield


_PINNED_DIGESTS = {
    "none": "49db894da529f5fcb426cbc7b3acfbc9",
    "trace": "4f7b3b773d85031c1f1d6b166652cb58",
    "memory-timeline": "2404fa697f7ce50b2502382f02c97e14",
    "file-timeline": "2404fa697f7ce50b2502382f02c97e14",
    "trace+timeline": "9c4ab3798e01e935dc628488a2e4fe9a",
    # Fingerprinting never changes a result, so it adds no tag.
    "fingerprint": "49db894da529f5fcb426cbc7b3acfbc9",
    # Nor do the run profiler and memory telemetry.
    "metrics+memory": "49db894da529f5fcb426cbc7b3acfbc9",
}


@pytest.mark.parametrize("profile", sorted(_PINNED_DIGESTS))
def test_task_digest_is_pinned_per_observability_profile(profile, tmp_path):
    """Literal keys: a refactor of the observability plumbing must not
    orphan a campaign store written before it (``STORE_SCHEMA`` 2).

    The package version is key material too, so a version bump changes
    every literal here on purpose.
    """
    with _observability_profile(profile, str(tmp_path)):
        digest = task_digest(_trial, ({"size": 5, "rate": 0.5}, 3))
    assert digest == _PINNED_DIGESTS[profile]
