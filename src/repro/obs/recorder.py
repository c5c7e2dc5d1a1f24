"""The flight recorder: sim-time sampling of protocol state (keyframe+delta).

A :class:`FlightRecorder` rides on one scenario and periodically captures a
cheap, side-effect-free snapshot of every node's protocol state (LQT
entries, CDI routes, store occupancy, send/retransmission queues) plus
network-wide state (active transmissions, cumulative airtime, the
neighbor-graph degree distribution).  Samples are taken on a configurable
sim-time interval and *forced* on discovery round boundaries, so the
recording always contains the instants the protocol pivots on.

Encoding
--------

Each nested snapshot is flattened to ``\\x1f``-joined path keys ("columnar"
— one scalar per key).  Every ``keyframe_every``-th sample is written as a
full **keyframe** (``{"rec": "key", "state": {...}}``); samples in between
are compact **deltas** (``{"rec": "delta", "set": {...}, "del": [...]}``).
Records go to a JSONL timeline file that shards per worker exactly like
trace files (``timeline.0.jsonl``, ...; see :mod:`repro.obs.durable`), or
stay in memory (:attr:`FlightRecorder.records`) when the timeline has no
path.  A memory timeline lives and dies with its process: figure runs
record to a file (``--timeline FILE``), and worker pools refuse a
memory timeline.  :mod:`repro.obs.timeline` reconstructs exact state at
any sample time from the nearest keyframe plus deltas, and renders the
per-node series (``repro inspect tl.jsonl --timeline``).

Zero-cost-when-disabled contract
--------------------------------

With no recording configured nothing is scheduled, no state views are
taken, and the simulator hot loop is untouched.  With recording enabled the
sampler only *reads* — every ``observe_state()`` view it calls is
non-mutating (no lazy purges, no trace emissions, no RNG draws) — so
result tables stay bit-identical with the recorder on.

Recording is switched on by the active
:class:`~repro.obs.config.ObsConfig` (``ObsConfig(timeline=True)`` or a
path, CLI ``--timeline``): every scenario built while it is active
attaches a recorder.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.config import DEFAULT_INTERVAL_S, DEFAULT_KEYFRAME_EVERY
from repro.obs.durable import DurableJsonlWriter

#: Path separator inside flattened state keys (ASCII unit separator: it
#: cannot collide with node ids, query ids, or hex item keys).
SEP = "\x1f"


# ----------------------------------------------------------------------
# Flat state codec
# ----------------------------------------------------------------------
def flatten_state(nested: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten a nested str-keyed dict to ``SEP``-joined path keys.

    Empty sub-dicts vanish: the flat form is the canonical representation
    (it carries exactly the scalar leaves), and reconstruction compares
    flat forms.
    """
    flat: Dict[str, Any] = {}
    stack: List[Tuple[str, Dict[str, Any]]] = [("", nested)]
    while stack:
        prefix, mapping = stack.pop()
        for key, value in mapping.items():
            path = key if not prefix else f"{prefix}{SEP}{key}"
            if isinstance(value, dict):
                stack.append((path, value))
            else:
                flat[path] = value
    return flat


def unflatten_state(flat: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild the nested dict form of a flattened state."""
    nested: Dict[str, Any] = {}
    for path, value in flat.items():
        parts = path.split(SEP)
        cursor = nested
        for part in parts[:-1]:
            cursor = cursor.setdefault(part, {})
        cursor[parts[-1]] = value
    return nested


# ----------------------------------------------------------------------
# State capture
# ----------------------------------------------------------------------
def capture_network_state(
    topology: Any, medium: Any, devices: Dict[Any, Any]
) -> Dict[str, Any]:
    """One nested, JSON-ready snapshot of the whole network's state.

    Strictly read-only: composes the ``observe_state()`` views (which
    never purge, emit, or draw randomness) plus the topology's degree
    distribution.  The same function backs both recording and the live
    captures the exactness property test compares against.
    """
    nodes = {
        str(node_id): device.observe_state()
        for node_id, device in devices.items()
        if getattr(device, "alive", True)
    }
    net = medium.observe_state()
    degree: Dict[str, int] = {}
    present = topology.nodes()
    for node_id in present:
        key = str(len(topology.neighbors(node_id)))
        degree[key] = degree.get(key, 0) + 1
    net["nodes"] = len(present)
    net["degree"] = degree
    return {"nodes": nodes, "net": net}


class FlightRecorder:
    """Samples one scenario's state on an interval plus round boundaries.

    Args:
        sim: The scenario's simulator (samples are timestamped with its
            clock and scoped by its trace run id).
        topology / medium / devices: Live references into the scenario —
            the *devices dict itself* is shared with any mobility trace
            player, so joins and leaves show up in later samples.
        writer: Shared timeline writer, or None to keep records in
            memory (:attr:`records`).
    """

    def __init__(
        self,
        sim: Any,
        topology: Any,
        medium: Any,
        devices: Dict[Any, Any],
        interval_s: float = DEFAULT_INTERVAL_S,
        keyframe_every: int = DEFAULT_KEYFRAME_EVERY,
        writer: Optional[DurableJsonlWriter] = None,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError(
                f"recording interval must be positive, got {interval_s!r}"
            )
        if int(keyframe_every) < 1:
            raise ConfigurationError(
                f"keyframe_every must be >= 1, got {keyframe_every!r}"
            )
        self.sim = sim
        self.topology = topology
        self.medium = medium
        self.devices = devices
        self.interval_s = float(interval_s)
        self.keyframe_every = int(keyframe_every)
        self._writer = writer
        self.records: List[Dict[str, Any]] = []
        self._prev_flat: Dict[str, Any] = {}
        self._seq = 0
        self._tick_event: Optional[Any] = None
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> "FlightRecorder":
        """Write the meta record, take sample 0, begin interval sampling."""
        if self._started:
            return self
        self._started = True
        self.sim.recorder = self
        self._write(
            {
                "rec": "meta",
                "run": self.sim.trace.run_id,
                "t": self.sim.now,
                "interval": self.interval_s,
                "keyframe_every": self.keyframe_every,
            }
        )
        self.sample(by="start")
        self._tick_event = self.sim.schedule(self.interval_s, self._tick)
        return self

    def stop(self) -> None:
        """Stop sampling (the timeline written so far stays valid)."""
        if not self._started:
            return
        self._started = False
        if getattr(self.sim, "recorder", None) is self:
            self.sim.recorder = None
        if self._tick_event is not None:
            self.sim.cancel(self._tick_event)
            self._tick_event = None

    def _tick(self) -> None:
        self.sample(by="interval")
        self._tick_event = self.sim.schedule(self.interval_s, self._tick)

    def on_round_boundary(self, kind: str, round_index: Optional[int] = None) -> None:
        """Forced sample at a discovery round edge (called by the rounds
        controller through ``sim.recorder``)."""
        self.sample(by=kind, round_index=round_index)

    # ------------------------------------------------------------------
    def sample(
        self, by: str = "manual", round_index: Optional[int] = None
    ) -> Dict[str, Any]:
        """Capture one sample now; returns the record written."""
        flat = flatten_state(
            capture_network_state(self.topology, self.medium, self.devices)
        )
        doc: Dict[str, Any] = {
            "rec": "key" if self._seq % self.keyframe_every == 0 else "delta",
            "run": self.sim.trace.run_id,
            "seq": self._seq,
            "t": self.sim.now,
            "by": by,
        }
        if round_index is not None:
            doc["round"] = round_index
        if doc["rec"] == "key":
            doc["state"] = flat
        else:
            prev = self._prev_flat
            doc["set"] = {
                key: value
                for key, value in flat.items()
                if key not in prev or prev[key] != value
            }
            doc["del"] = [key for key in prev if key not in flat]
        self._write(doc)
        self._prev_flat = flat
        self._seq += 1
        return doc

    def _write(self, doc: Dict[str, Any]) -> None:
        if self._writer is not None:
            self._writer.write_doc(doc)
        else:
            self.records.append(doc)
