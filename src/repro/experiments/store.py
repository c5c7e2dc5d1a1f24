"""Content-addressed campaign store: resumable, reusable trial results.

The determinism substrate (exact digests, fingerprints, ``repro
diverge``) guarantees that a trial is a pure function of its inputs: the
trial function, its parameter point, its seed and the package version
(the observability profile is key material too, so that stores written
by earlier builds keep their keys; see :func:`observability_tags`).
That makes caching sound — a trial keyed by the canonical digest of
those inputs has exactly one correct result, so a crashed 10⁶-trial
sweep can resume from what it already computed instead of starting
over, and results are reusable across campaigns (and PRs) that re-run
the same points.

Layout::

    <root>/objects/<digest[:2]>/<digest>.json   one entry per trial
    <root>/objects/**/*.tmp                     in-flight writes (ignored)

Entries are published crash-safely (temp file + ``fsync`` + ``os.replace``
via :func:`repro.obs.durable.write_json_atomic`): a killed campaign
leaves either a complete entry or an ignorable ``*.tmp`` — never a
half-written result.  An entry that is missing, truncated, unparseable,
or whose embedded key disagrees with its filename is treated as a cache
*miss* (the trial re-runs) and counted on
:attr:`CampaignStore.corrupt_seen`; ``repro campaign gc`` deletes such
files.

Wire-up: ``run_sweep(store=...)`` (CLI ``--store PATH``) writes every
completed trial through the store and, with ``resume=True`` (the
default), skips trials whose digest is already present — reassembly
stays bit-identical to an uninterrupted run because cached values are
validated to round-trip through JSON exactly at ``put`` time.
In-flight trials (no entry yet) simply re-run.  ``repro campaign
status|resume|gc`` operates on a store from the command line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.metrics import TrialFailure
from repro.obs.durable import provenance_doc, repro_version, write_json_atomic

#: Bump when the entry document schema changes incompatibly; entries
#: written under another schema version read as misses, not crashes.
STORE_SCHEMA = 2

#: Separator between key-material fields (same as the fingerprint
#: encoding's field separator — it cannot appear in canonical text).
_SEP = "\x1f"


# ----------------------------------------------------------------------
# Canonical key derivation
# ----------------------------------------------------------------------
def canonical_params(value: Any) -> str:
    """Deterministic canonical text of one trial parameter value.

    Scalars encode by ``repr`` (shortest-round-trip floats, so equal
    values always encode identically); bytes by length + SHA-256;
    containers recurse with dicts in sorted key order; dataclasses (the
    figure modules' scenario specs) recurse over their declared fields.
    Objects may opt in with a ``store_key()`` (or ``fingerprint()``)
    method returning a deterministic value.

    Anything else raises :class:`~repro.errors.ConfigurationError`:
    object identity (memory addresses, default reprs) must never leak
    into a content address, because a key that varies between processes
    would silently disable caching — or worse, a key that *collides*
    would return the wrong cached result.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, bytes):
        return f"bytes[{len(value)}]#{hashlib.sha256(value).hexdigest()[:16]}"
    if isinstance(value, (tuple, list)):
        inner = ",".join(canonical_params(item) for item in value)
        return f"[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(canonical_params(item) for item in value))
        return f"{{{inner}}}"
    if isinstance(value, dict):
        inner = ",".join(
            f"{canonical_params(key)}:{canonical_params(item)}"
            for key, item in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return f"{{{inner}}}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        inner = ",".join(
            f"{f.name}={canonical_params(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"<{type(value).__qualname__}({inner})>"
    for protocol in ("store_key", "fingerprint"):
        custom = getattr(value, protocol, None)
        if callable(custom):
            return f"<{type(value).__qualname__}:{canonical_params(custom())}>"
    raise ConfigurationError(
        f"cannot derive a stable campaign-store key from a "
        f"{type(value).__qualname__} parameter ({value!r}); pass scalars, "
        f"containers, or dataclasses — or give the object a store_key() "
        f"method returning a deterministic value"
    )


def trial_id(trial: Callable[..., Any]) -> str:
    """``module.qualname`` identity of a trial function."""
    func = getattr(trial, "__func__", trial)
    module = getattr(func, "__module__", None) or "?"
    name = (
        getattr(func, "__qualname__", None)
        or getattr(func, "__name__", None)
        or "?"
    )
    return f"{module}.{name}"


def observability_tags() -> Tuple[str, ...]:
    """The ``trace``/``timeline`` tags every trial key carries.

    No instrument changes a trial's value (the zero-perturbation
    contract), but earlier builds attached audit and timeline summaries
    to traced or recorded results and keyed them apart with these tags.
    The tags stay so that campaign stores written by those builds keep
    hitting; dropping them would re-key every traced or recorded entry.
    Both are read from the active :class:`~repro.obs.config.ObsConfig`;
    no other instrument (fingerprint, metrics, memory) adds a tag.
    """
    from repro.obs.config import active

    return tuple(
        instrument
        for instrument in ("trace", "timeline")
        if active(instrument) is not None
    )


def task_digest(trial: Callable[..., Any], args: Tuple[Any, ...]) -> str:
    """Content address of one trial execution.

    Canonical digest of ``(trial qualname, args, repro version,
    observability profile)``; ``args`` is ``(point, seed)``.
    """
    material = _SEP.join(
        (
            "repro-store-v%d" % STORE_SCHEMA,
            trial_id(trial),
            canonical_params(tuple(args)),
            repro_version(),
            ",".join(observability_tags()),
        )
    )
    return hashlib.blake2b(
        material.encode("utf-8"), digest_size=16
    ).hexdigest()


# ----------------------------------------------------------------------
# Entry model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreEntry:
    """One trial's durable outcome.

    Attributes:
        key: The content address (hex digest of the trial inputs).
        trial: ``module.qualname`` of the trial function.
        label: The campaign label (e.g. ``"5x5 seed 3"``).
        seed: The trial's seed.
        kind: ``"ok"`` or a failure kind (``"error"``/``"timeout"``/
            ``"crash"``).
        value: The trial's return value (``kind == "ok"`` only).
        failure: The :class:`TrialFailure` record (failed entries only).
        artifacts: Paths of the JSONL artifact streams (trace/timeline/
            fingerprint bases) the trial's events were written to.
    """

    key: str
    trial: str
    label: str
    seed: int
    kind: str
    value: Any = None
    failure: Optional[TrialFailure] = None
    artifacts: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


def _check_roundtrip(value: Any, label: str) -> None:
    try:
        restored = json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"trial {label!r} returned a value the campaign store cannot "
            f"serialize ({exc}); store-backed trials must return JSON "
            f"values (dicts/lists/scalars)"
        ) from None
    if restored != value:
        raise ConfigurationError(
            f"trial {label!r} returned a value that does not survive a "
            f"JSON round-trip exactly (e.g. tuples or NaN); a cached "
            f"replay would not be bit-identical, so the campaign store "
            f"refuses to record it"
        )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class CampaignStore:
    """A directory of content-addressed trial results.

    Safe for concurrent writers: entries are published atomically and a
    digest has exactly one correct content, so overlapping campaigns can
    share one store (last write wins with identical bytes).

    Attributes:
        root: The store directory (created on first use).
        corrupt_seen: Corrupt entries encountered by ``get``/``entries``
            since this handle was created (each read as a miss).
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self._objects = os.path.join(self.root, "objects")
        try:
            os.makedirs(self._objects, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create campaign store at {self.root!r}: {exc}"
            ) from None
        self.corrupt_seen = 0

    # ------------------------------------------------------------------
    def _entry_path(self, digest: str) -> str:
        return os.path.join(self._objects, digest[:2], f"{digest}.json")

    def __contains__(self, digest: str) -> bool:
        return os.path.exists(self._entry_path(digest))

    def get(
        self, digest: str, include_failures: bool = False
    ) -> Optional[StoreEntry]:
        """The entry at ``digest``, or None (missing / corrupt / failed).

        Failure records are kept for ``campaign status`` forensics but
        are not returned as cache hits by default: a crash or timeout is
        environment-dependent, so a resumed campaign re-runs the trial
        (a deterministic error just fails identically again).
        """
        path = self._entry_path(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            self.corrupt_seen += 1
            return None
        entry = self._parse_entry(doc, digest)
        if entry is None:
            self.corrupt_seen += 1
            return None
        if not include_failures and not entry.ok:
            return None
        return entry

    def _parse_entry(self, doc: Any, digest: str) -> Optional[StoreEntry]:
        if not isinstance(doc, dict):
            return None
        if doc.get("store") != STORE_SCHEMA:
            return None
        if doc.get("key") != digest:
            # Digest mismatch: tampered, renamed, or bit-rotted — never
            # trust it, just re-run the trial.
            return None
        kind = doc.get("kind")
        if kind not in ("ok", "error", "timeout", "crash"):
            return None
        if kind == "ok" and "value" not in doc:
            return None
        failure = None
        if kind != "ok":
            failure_doc = doc.get("failure")
            if not isinstance(failure_doc, dict):
                return None
            failure = TrialFailure(
                label=str(failure_doc.get("label", "")),
                seed=int(failure_doc.get("seed", -1)),
                kind=str(failure_doc.get("kind", kind)),
                error=str(failure_doc.get("error", "")),
                attempts=int(failure_doc.get("attempts", 0)),
            )
        try:
            return StoreEntry(
                key=str(doc["key"]),
                trial=str(doc.get("trial", "?")),
                label=str(doc.get("label", "")),
                seed=int(doc.get("seed", -1)),
                kind=str(kind),
                value=doc.get("value"),
                failure=failure,
                artifacts=dict(doc.get("artifacts", {})),
            )
        except (KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    def put_value(
        self,
        digest: str,
        trial: str,
        label: str,
        seed: int,
        value: Any,
        artifacts: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Durably record one successful trial under ``digest``."""
        _check_roundtrip(value, label)
        doc = {
            "store": STORE_SCHEMA,
            "provenance": provenance_doc(),
            "key": digest,
            "trial": trial,
            "label": label,
            "seed": seed,
            "kind": "ok",
            "value": value,
            "artifacts": dict(artifacts or {}),
        }
        self._publish(digest, doc)

    def put_failure(
        self,
        digest: str,
        trial: str,
        failure: TrialFailure,
        artifacts: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a permanent failure (status/forensics; never a hit)."""
        doc = {
            "store": STORE_SCHEMA,
            "provenance": provenance_doc(),
            "key": digest,
            "trial": trial,
            "label": failure.label,
            "seed": failure.seed,
            "kind": failure.kind,
            "failure": {
                "label": failure.label,
                "seed": failure.seed,
                "kind": failure.kind,
                "error": failure.error,
                "attempts": failure.attempts,
            },
            "artifacts": dict(artifacts or {}),
        }
        self._publish(digest, doc)

    def _publish(self, digest: str, doc: Dict[str, Any]) -> None:
        path = self._entry_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_json_atomic(path, doc)

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[StoreEntry]:
        """All parseable entries (corrupt files counted, not yielded)."""
        for digest, path in self._entry_files():
            entry = self.get(digest, include_failures=True)
            if entry is not None:
                yield entry

    def _entry_files(self) -> Iterator[Tuple[str, str]]:
        if not os.path.isdir(self._objects):
            return
        for bucket in sorted(os.listdir(self._objects)):
            bucket_dir = os.path.join(self._objects, bucket)
            if not os.path.isdir(bucket_dir):
                continue
            for name in sorted(os.listdir(bucket_dir)):
                if name.endswith(".json"):
                    yield name[: -len(".json")], os.path.join(bucket_dir, name)

    def _tmp_files(self) -> List[str]:
        leftovers: List[str] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".tmp"):
                    leftovers.append(os.path.join(dirpath, name))
        return sorted(leftovers)

    def status(self) -> Dict[str, Any]:
        """Counts and sizes for ``repro campaign status``."""
        by_kind: Dict[str, int] = {}
        by_trial: Dict[str, int] = {}
        total_bytes = 0
        corrupt = 0
        count = 0
        for digest, path in self._entry_files():
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
            before = self.corrupt_seen
            entry = self.get(digest, include_failures=True)
            if entry is None:
                corrupt += self.corrupt_seen - before
                continue
            count += 1
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
            by_trial[entry.trial] = by_trial.get(entry.trial, 0) + 1
        return {
            "root": self.root,
            "entries": count,
            "ok": by_kind.get("ok", 0),
            "failed": count - by_kind.get("ok", 0),
            "by_kind": dict(sorted(by_kind.items())),
            "by_trial": dict(sorted(by_trial.items())),
            "corrupt": corrupt,
            "tmp": len(self._tmp_files()),
            "bytes": total_bytes,
        }

    def gc(self, failed: bool = False) -> Dict[str, int]:
        """Remove junk: ``*.tmp`` leftovers and corrupt entries always,
        failure records too with ``failed=True``.  Returns removal counts.
        """
        removed = {"tmp": 0, "corrupt": 0, "failed": 0}
        for path in self._tmp_files():
            try:
                os.unlink(path)
                removed["tmp"] += 1
            except OSError:
                pass
        for digest, path in list(self._entry_files()):
            before = self.corrupt_seen
            entry = self.get(digest, include_failures=True)
            if entry is None and self.corrupt_seen > before:
                try:
                    os.unlink(path)
                    removed["corrupt"] += 1
                except OSError:
                    pass
            elif failed and entry is not None and not entry.ok:
                try:
                    os.unlink(path)
                    removed["failed"] += 1
                except OSError:
                    pass
        return removed


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def resolve_store(store: Any) -> Optional[CampaignStore]:
    """Normalize the ``store=`` knob: None → none, path → CampaignStore."""
    if store is None:
        return None
    if isinstance(store, CampaignStore):
        return store
    if isinstance(store, (str, os.PathLike)):
        return CampaignStore(os.fspath(store))
    raise ConfigurationError(
        f"store must be a path or CampaignStore, got {store!r}"
    )
