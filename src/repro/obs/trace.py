"""The trace bus: typed protocol events with pluggable sinks.

Every :class:`~repro.sim.simulator.Simulator` owns one :class:`TraceBus`
(``sim.trace``).  Protocol layers publish *typed events* onto it — a short
``kind`` string plus flat keyword fields — stamped with the current virtual
time and the bus's run id (so events from several simulations interleaved
into one file can be told apart).

The bus is **disabled until a sink subscribes**: publishers guard their
emission sites with ``if trace.enabled:`` so a quiet bus costs one
attribute load and a branch, keeping the hot paths at full speed.

Sinks are tiny observer objects:

* :class:`ListSink` — unbounded in-memory capture (tests, ad-hoc digging);
* :class:`RingBufferSink` — bounded capture of the most recent events;
* :class:`JsonlSink` — one JSON object per line, streamed to a file that
  ``python -m repro inspect`` (and any jq pipeline) understands.

Process-wide sinks — those registered via :func:`install_global_sink`
plus the trace sink of the active :class:`~repro.obs.config.ObsConfig` —
are attached to every simulator created afterwards.  That is how
``--trace out.jsonl`` reaches the scenarios a figure module builds deep
inside its run loop.

Event taxonomy (see DESIGN.md for the full field tables):

====================  =====================================================
kind                  emitted by / meaning
====================  =====================================================
``sim_run_end``       Simulator: one ``run()`` call finished.
``frame_sent``        Medium: a frame went on the air (size, kind, retx).
``frame_delivered``   Medium: one receiver got a frame copy.
``frame_lost``        Medium: a copy was ruined (collision/busy/random).
``frame_dropped``     Radio: the OS buffer silently discarded a frame.
``retransmit``        Reliability: an unacked frame was re-sent.
``abandon``           Reliability: retries exhausted, frame given up.
``query_issued``      Discovery/CDI/MDR: a consumer flooded a fresh query.
``query_forwarded``   Discovery/CDI/MDR: a relay re-flooded a query.
``bloom_prune``       Discovery: DS lookup hit/miss counts vs the filter.
``response_sent``     Discovery/CDI: entries/payloads left a responder.
``mixedcast_merge``   Discovery: relayed union response (entry counts).
``lqt_linger``        LQT: a query began lingering at a node.
``lqt_expire``        LQT: a lingering query aged out.
``round_begin``       Rounds: a discovery round started.
``round_end``         Rounds: the silence rule ended a round.
``cdi_update``        Retrieval: CDI table learned/improved routes.
``chunk_assignment``  Retrieval: chunk ids divided among neighbors
                      (includes the raw per-chunk options for audits).
``chunk_request``     Retrieval: a chunk query left for one neighbor
                      (root/parent ids encode the division tree).
``chunk_served``      Retrieval/MDR: a stored chunk answered a query.
``chunk_received``    Retrieval: an addressed chunk reached its consumer.
====================  =====================================================

**Correlation fields.**  Protocol events carry whichever of the shared
correlation keys apply: ``query_id`` (message id of the governing query),
``response_id``, ``round`` (discovery round index), ``chunk_id``,
``consumer`` (the origin node the data is flowing toward), and ``hop``.
Link-layer events (``frame_*``, ``retransmit``, ``abandon``) inherit the
same keys from the payload's :meth:`~repro.net.message.Correlation` stamp
on the frame.  :mod:`repro.obs.spans` folds these into per-query and
per-chunk span trees; :mod:`repro.obs.audit` checks causal invariants
over them.
"""

from __future__ import annotations

import itertools
from collections import Counter as TallyCounter
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.obs.durable import DurableJsonlWriter, JsonlRecords

_run_ids = itertools.count(1)


@dataclass(frozen=True)
class TraceEvent:
    """One typed event at one virtual time.

    Attributes:
        time: Virtual time of emission (``sim.now``).
        kind: Event type from the module taxonomy.
        node: Node id the event happened at, or None for global events.
        run: Id of the emitting bus (one per simulator).
        fields: Flat JSON-serializable event details.
    """

    time: float
    kind: str
    node: Optional[int]
    run: int
    fields: Dict[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, object]:
        """The flat dict written to JSONL files."""
        doc: Dict[str, object] = {"t": self.time, "kind": self.kind, "run": self.run}
        if self.node is not None:
            doc["node"] = self.node
        doc.update(self.fields)
        return doc


class TraceSink:
    """Observer interface for trace events."""

    def handle(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (files); safe to call twice."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ListSink(TraceSink):
    """Unbounded in-memory capture."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def handle(self, event: TraceEvent) -> None:
        self.events.append(event)


class RingBufferSink(TraceSink):
    """Keeps only the most recent ``capacity`` events."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.seen = 0

    def handle(self, event: TraceEvent) -> None:
        self.events.append(event)
        self.seen += 1

    @property
    def dropped(self) -> int:
        """Events that fell out of the ring."""
        return self.seen - len(self.events)


class JsonlSink(DurableJsonlWriter, TraceSink):
    """Streams events to a file, one JSON object per line.

    All durability rules (flush+fsync on close, ``atexit`` hook,
    pid-guarded close under ``fork``) live in
    :class:`~repro.obs.durable.DurableJsonlWriter`.  Usable as a context
    manager.
    """

    def handle(self, event: TraceEvent) -> None:
        self.write_doc(event.to_json_dict())


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Load one trace file back into a list of flat event dicts.

    Provenance headers and attempt markers are skipped, and so are
    unparseable lines (see :class:`~repro.obs.durable.JsonlRecords`).
    """
    return [event for _, event in JsonlRecords([path])]


class TraceBus:
    """Per-simulator event publisher.

    ``enabled`` is a plain attribute kept in sync with the sink list so the
    hot-path guard (``if trace.enabled:``) is one load, no call.
    """

    __slots__ = ("clock", "run_id", "enabled", "counts", "_sinks")

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        run_id: Optional[int] = None,
    ) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.run_id = next(_run_ids) if run_id is None else run_id
        self._sinks: List[TraceSink] = []
        self.enabled = False
        #: Per-kind emission tally (cheap observability of the tracer).
        self.counts: TallyCounter = TallyCounter()

    def subscribe(self, sink: TraceSink) -> TraceSink:
        """Attach a sink; enables the bus."""
        self._sinks.append(sink)
        self.enabled = True
        return sink

    def unsubscribe(self, sink: TraceSink) -> None:
        """Detach a sink; the bus disables itself when none remain."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        self.enabled = bool(self._sinks)

    def emit(self, kind: str, node: Optional[int] = None, **fields: object) -> Optional[TraceEvent]:
        """Publish one event to all sinks.

        While no sink is attached this degenerates to a tally bump: no
        :class:`TraceEvent` is built, the clock is not read, and the kwargs
        dict (already materialised by the call) is dropped — so unguarded
        emission sites still cost ~a dict build, not an object graph.
        Guarded sites (``if trace.enabled:``) skip even that.
        """
        if not self._sinks:
            self.counts[kind] += 1
            return None
        event = TraceEvent(self.clock(), kind, node, self.run_id, fields)
        self.counts[kind] += 1
        for sink in self._sinks:
            sink.handle(event)
        return event


#: Sinks attached to every TraceBus created after registration.
_GLOBAL_SINKS: List[TraceSink] = []


def install_global_sink(sink: TraceSink) -> TraceSink:
    """Attach ``sink`` to all simulators created from now on."""
    _GLOBAL_SINKS.append(sink)
    return sink


def remove_global_sink(sink: TraceSink) -> None:
    """Stop attaching ``sink`` to new simulators."""
    try:
        _GLOBAL_SINKS.remove(sink)
    except ValueError:
        pass


def global_sinks() -> List[TraceSink]:
    """The registered process-wide sinks, plus the active config's trace.

    The trace sink of the active :class:`~repro.obs.config.ObsConfig`
    (``--trace FILE``) comes last.
    """
    from repro.obs.config import active

    obs = active("trace")
    if obs is None:
        return list(_GLOBAL_SINKS)
    return _GLOBAL_SINKS + [obs.trace_sink]


@contextmanager
def global_sink(sink: TraceSink) -> Iterator[TraceSink]:
    """Scope a process-wide sink registration (used by the CLI)."""
    install_global_sink(sink)
    try:
        yield sink
    finally:
        remove_global_sink(sink)
        sink.close()
