"""Event-stream fingerprinting: chained digests with checkpoint records.

Every determinism gate in this repo (parallel-vs-serial parity,
fingerprint-on-vs-off table parity, the ``bench --check`` digest gate)
compares whole-run outputs — which says *that* two runs diverged, never
*where*.  Fingerprinting closes that gap: while the active
:class:`~repro.obs.config.ObsConfig` has ``fingerprint`` set (CLI
``--fingerprint FILE``, ``repro bench --fingerprint``, every executable
``repro diverge`` side), the simulator dispatch loop canonically encodes
every fired event — virtual time, priority, sequence number, handler
key, and scalar payload fields — into a **rolling chained digest** (one
incremental BLAKE2b per simulator run), and every ``checkpoint_every``
events emits a compact checkpoint record ``{"fp": "ckpt", "i": N,
"digest": ..., "t": ..., "seq": ..., "h": ...}`` to a JSONL stream that
shards per worker exactly like trace and timeline files (or to memory,
on :attr:`ActiveObs.streams`).

Because the digest is *chained* (checkpoint ``N`` covers events ``1..N``),
two runs' checkpoint streams agree on every checkpoint before their first
divergent event and disagree on every checkpoint after it — so
:mod:`repro.obs.diverge` can binary-search the streams to the first
divergent event in ``O(log total-events)`` checkpoint comparisons, then
re-run with a *detail window* (``ObsConfig.fingerprint_detail``) that
captures full per-event records only inside the bracketing interval.

Zero-cost-when-disabled contract
--------------------------------

With no fingerprint configured the dispatch loop takes its original
branch (the only cost is one ``active("fingerprint")`` call per
``run()``), so fingerprint-off runs are bit-identical to seed — enforced
by the bench digest gate.  With a fingerprint active, encoding and hashing
run just before each event's callback without touching event order, virtual
time, or RNG draws, so fingerprinted runs keep exact output digests; only
wall time changes (measured <10% on mobility_pdd).
"""

from __future__ import annotations

import struct
from hashlib import blake2b
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.config import ActiveObs
from repro.obs.durable import JsonlRecords, resolve_trace_paths

#: Hex digits kept from each chained digest (BLAKE2b-128).
DIGEST_SIZE = 16

#: Field separator inside the canonical event encoding.
_SEP = b"\x1f"

#: Binary encoding of the event identity triple (time, priority, sequence):
#: one C call instead of three reprs on the hot path, and ``<d`` is exact
#: for every float (no shortest-repr rounding work).  The fixed 24-byte
#: width means no separator is needed between the identity and the handler
#: key, and checkpoint records can recover the last event's identity from
#: the encoded stream instead of bookkeeping it per event.
_IDENTITY = struct.Struct("<dqq")
_PACK_IDENTITY = _IDENTITY.pack
_UNPACK_IDENTITY = _IDENTITY.unpack


# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------
def canon_value(value: Any) -> str:
    """Canonical string form of one payload value.

    Scalars encode by ``repr`` (deterministic for int/float/str/bool/
    None); bytes by length + CRC; tuples/lists/dicts recurse (dicts in
    sorted key order).  Anything else contributes its *class* name only —
    object identity (memory addresses, default reprs) must never leak
    into a fingerprint, and the scalar fields plus the ``(time, priority,
    sequence, handler)`` identity already pin the event.  Objects may opt
    into richer encoding with a ``fingerprint()`` method returning a
    deterministic scalar.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, bytes):
        import zlib

        return f"bytes[{len(value)}]#{zlib.crc32(value):08x}"
    if isinstance(value, (tuple, list)):
        inner = ",".join(canon_value(item) for item in value)
        return f"[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(canon_value(item) for item in value))
        return f"{{{inner}}}"
    if isinstance(value, dict):
        inner = ",".join(
            f"{canon_value(key)}:{canon_value(item)}"
            for key, item in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return f"{{{inner}}}"
    custom = getattr(value, "fingerprint", None)
    if callable(custom):
        return f"<{type(value).__qualname__}:{canon_value(custom())}>"
    return f"<{type(value).__qualname__}>"


def handler_key(callback: Callable[..., Any]) -> str:
    """``module.qualname`` identity of an event's handler function."""
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None) or "?"
    name = (
        getattr(func, "__qualname__", None)
        or getattr(func, "__name__", None)
        or "?"
    )
    return f"{module}.{name}"


# ----------------------------------------------------------------------
# Per-simulator stream
# ----------------------------------------------------------------------
class EventFingerprinter:
    """One simulator run's rolling chained digest + checkpoint emitter.

    Created lazily by the simulator's fingerprint dispatch branch on the
    first ``run()`` under a fingerprinting config.  ``note(event)`` is the
    hot path: encode canonically, fold into the incremental hash, emit a
    checkpoint every K events (and a final checkpoint whenever a
    ``run()`` call ends with events unreported, so the stream tail always
    carries the run's closing digest).
    """

    __slots__ = (
        "obs",
        "run_id",
        "records",
        "note",
        "_hash",
        "_buffer",
        "_writer",
        "_every",
        "_detail_lo",
        "_detail_hi",
        "_key_cache",
        "_type_cache",
        "_last_ckpt",
        "_flushed",
        "_tail",
        "_target",
    )

    def __init__(self, sim: Any, obs: ActiveObs) -> None:
        self.obs = obs
        self.run_id = sim.trace.run_id
        self.records: List[Dict[str, Any]] = []
        self._hash = blake2b(digest_size=DIGEST_SIZE)
        #: Encoded events not yet folded into ``_hash`` (flushed at every
        #: checkpoint / detail record / digest read — batching the hash
        #: updates keeps the per-event cost to an append).  The event
        #: index is ``_flushed + len(_buffer)``, so the hot path never
        #: maintains a counter.
        self._buffer: List[bytes] = []
        self._writer = obs.writer("fingerprint")
        self._every = obs.config.checkpoint_every
        detail = obs.config.fingerprint_detail
        self._detail_lo = detail[0] if detail is not None else 0
        self._detail_hi = detail[1] if detail is not None else -1
        #: handler func -> canonical key bytes.
        self._key_cache: Dict[Any, bytes] = {}
        #: type -> constant encoding, for payload classes whose instances
        #: all encode identically (no ``fingerprint()`` method, not a
        #: scalar/container) — skips the canon_value dispatch per event.
        self._type_cache: Dict[type, bytes] = {}
        self._last_ckpt = 0
        self._flushed = 0
        #: Last encoded event folded into the hash — checkpoint records
        #: recover ``(t, seq, h)`` from it instead of per-event stores.
        self._tail: Optional[bytes] = None
        #: Buffer length at which the next periodic checkpoint is due
        #: (a one-element list so the ``note`` closure and the flush path
        #: share it without attribute traffic on the hot path).
        self._target = [self._every]
        if self._writer is None:
            obs.streams.append(self)
        self._emit(
            {
                "fp": "meta",
                "run": self.run_id,
                "every": self._every,
            }
        )
        self.note = self._make_note()

    # ------------------------------------------------------------------
    @property
    def index(self) -> int:
        """Events folded so far (hashed batches + pending buffer)."""
        return self._flushed + len(self._buffer)

    def _make_note(self) -> Callable[[Any], None]:
        """Build the hot-path closure with all per-event state in cells.

        ``note(event)`` fires once per dispatched event; binding the
        caches, buffer, and packers as closure cells (instead of ``self``
        attributes) shaves the lookups that dominate at ~1µs/event.
        Encoded events accumulate in the buffer and fold into the
        incremental hash in batches; payload args hit a per-type constant
        cache for opaque objects and an inline scalar fast path, so the
        full :func:`canon_value` dispatch only runs for containers and
        first-seen classes.
        """
        key_cache = self._key_cache
        key_get = key_cache.get
        type_cache = self._type_cache
        type_get = type_cache.get
        buffer = self._buffer
        append = buffer.append
        pack = _PACK_IDENTITY
        sep = _SEP
        join = _SEP.join
        target = self._target
        checkpoint = self._checkpoint
        has_detail = self._detail_hi >= self._detail_lo
        self_ref = self

        def note(event: Any) -> None:
            callback = event.callback
            func = getattr(callback, "__func__", callback)
            key = key_get(func)
            if key is None:
                key = key_cache[func] = handler_key(callback).encode(
                    "utf-8", "backslashreplace"
                )
            args = event.args
            if args:
                parts = [key]
                for arg in args:
                    cls = type(arg)
                    constant = type_get(cls)
                    if constant is not None:
                        parts.append(constant)
                    elif cls is int:
                        parts.append(b"%d" % arg)
                    elif cls is str or cls is float or cls is bool:
                        parts.append(
                            repr(arg).encode("utf-8", "backslashreplace")
                        )
                    elif arg is None:
                        parts.append(b"None")
                    else:
                        encoded_arg = canon_value(arg).encode(
                            "utf-8", "backslashreplace"
                        )
                        if not isinstance(
                            arg,
                            (bytes, tuple, list, set, frozenset, dict),
                        ) and getattr(arg, "fingerprint", None) is None:
                            # Every instance of this class encodes to the
                            # same constant (identity never leaks).
                            type_cache[cls] = encoded_arg
                        parts.append(encoded_arg)
                append(
                    pack(event.time, event.priority, event.sequence)
                    + join(parts)
                )
            else:
                append(
                    pack(event.time, event.priority, event.sequence) + key
                )
            if has_detail:
                self_ref._maybe_detail(event, key, args)
            if len(buffer) == target[0]:
                checkpoint()

        return note

    def _maybe_detail(self, event: Any, key: bytes, args: Any) -> None:
        index = self._flushed + len(self._buffer)
        if self._detail_lo <= index <= self._detail_hi:
            self._flush_hash()
            self._emit(
                {
                    "fp": "event",
                    "run": self.run_id,
                    "i": index,
                    "t": event.time,
                    "prio": event.priority,
                    "seq": event.sequence,
                    "h": key.decode("utf-8", "backslashreplace"),
                    "args": [canon_value(arg) for arg in args],
                    "digest": self._hash.copy().hexdigest(),
                }
            )

    def flush_checkpoint(self) -> None:
        """Emit a closing checkpoint if events fired since the last one."""
        if self._flushed + len(self._buffer) > self._last_ckpt:
            self._checkpoint()

    def _flush_hash(self) -> None:
        buffer = self._buffer
        if buffer:
            self._hash.update(b"".join(buffer))
            count = len(buffer)
            self._flushed += count
            # Keep the buffer-length checkpoint trigger honest across
            # mid-interval flushes (detail records, digest reads).
            self._target[0] -= count
            self._tail = buffer[-1]
            buffer.clear()

    def _checkpoint(self) -> None:
        index = self._flushed + len(self._buffer)
        self._last_ckpt = index
        self._flush_hash()
        self._target[0] = self._every
        tail = self._tail
        if tail is not None:
            time, _prio, seq = _UNPACK_IDENTITY(tail[:24])
            handler = tail[24:].split(_SEP, 1)[0].decode(
                "utf-8", "backslashreplace"
            )
        else:
            time, seq, handler = 0.0, -1, ""
        self._emit(
            {
                "fp": "ckpt",
                "run": self.run_id,
                "i": index,
                "digest": self._hash.copy().hexdigest(),
                "t": time,
                "seq": seq,
                "h": handler,
            }
        )

    def _emit(self, doc: Dict[str, Any]) -> None:
        if self._writer is not None:
            self._writer.write_doc(doc)
        else:
            self.records.append(doc)

    @property
    def digest(self) -> str:
        """The chained digest over every event folded so far."""
        self._flush_hash()
        return self._hash.copy().hexdigest()


# ----------------------------------------------------------------------
# Loading (shard-aware, mirrors the trace/timeline loaders)
# ----------------------------------------------------------------------
class FingerprintRun:
    """One simulator run's fingerprint records, in event-index order.

    Attributes:
        scope: ``(shard, run)`` identity scope.
        meta: The run's ``"meta"`` record (may be empty on damaged files).
        checkpoints: ``"ckpt"`` records sorted by event index ``i``.
        events: ``"event"`` detail records sorted by ``i``.
    """

    def __init__(self, scope: Tuple[str, int]) -> None:
        self.scope = scope
        self.meta: Dict[str, Any] = {}
        self.checkpoints: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []

    @property
    def final_digest(self) -> Optional[str]:
        """The last checkpoint's chained digest (``None`` if no events)."""
        return (
            str(self.checkpoints[-1]["digest"]) if self.checkpoints else None
        )

    @property
    def total_events(self) -> int:
        return int(self.checkpoints[-1]["i"]) if self.checkpoints else 0


class FingerprintLoad:
    """Every run found across the resolved fingerprint shard files."""

    def __init__(
        self, runs: List[FingerprintRun], paths: List[str], skipped: int
    ) -> None:
        self.runs = runs
        self.paths = paths
        self.skipped_lines = skipped

    def combined_digest(self) -> str:
        """Order-independent digest over every run's final chained digest.

        Worker scheduling makes *which shard* a trial lands in (and hence
        the shard-merged run order) nondeterministic, but the *set* of
        per-run digests is not: a ``jobs=N`` campaign must produce exactly
        the runs a serial campaign does.  Hashing the sorted final digests
        makes serial and merged parallel streams directly comparable.
        """
        digests = sorted(
            run.final_digest or "" for run in self.runs
        )
        fold = blake2b(digest_size=DIGEST_SIZE)
        for digest in digests:
            fold.update(digest.encode("ascii"))
            fold.update(b"\n")
        return fold.hexdigest()


def load_fingerprints(path: str) -> FingerprintLoad:
    """Load and scope the fingerprint file(s) named by ``path``.

    Shard resolution matches trace files (plain file + its worker shards,
    directory, or glob).  Unparseable lines — including the truncated
    final line a killed worker leaves — and non-fingerprint records are
    skipped and counted; records are ordered by event index within each
    ``(shard, run)`` scope.
    """
    paths = resolve_trace_paths(path)
    records = JsonlRecords(paths)
    runs: Dict[Tuple[str, int], FingerprintRun] = {}
    order: List[Tuple[str, int]] = []
    skipped = 0
    for shard, record in records:
        kind = record.get("fp")
        if kind not in ("meta", "ckpt", "event"):
            skipped += 1
            continue
        scope = (shard, int(record.get("run", 0)))
        run = runs.get(scope)
        if run is None:
            run = runs[scope] = FingerprintRun(scope)
            order.append(scope)
        if kind == "meta":
            run.meta = record
        elif kind == "ckpt":
            run.checkpoints.append(record)
        else:
            run.events.append(record)
    for run in runs.values():
        run.checkpoints.sort(key=lambda record: int(record.get("i", 0)))
        run.events.sort(key=lambda record: int(record.get("i", 0)))
    return FingerprintLoad(
        runs=[runs[scope] for scope in order],
        paths=paths,
        skipped=skipped + records.skipped,
    )
