"""Consumer-side sessions: the application-facing API of PDS.

* :class:`DiscoverySession` — multi-round PDD (§III): repeatedly floods a
  lingering query, collects metadata entries (or small data items), and
  stops when a round yields (almost) nothing new.
* :class:`RetrievalSession` — two-phase PDR (§IV): gathers CDI, then
  recursively requests chunks from nearest neighbors, with stall-driven
  recovery until every chunk arrived.
* :class:`MdrSession` — the multi-round data retrieval baseline (§VI-B-3).

All three share one life cycle, :class:`_Session`: start once, attach
listeners to the device, seed from its store, track everything needed for
the paper's metrics (recall set, last-new arrival for latency, round
count), and on finishing stop the round controller, fill in the
:class:`SessionResult`, detach and call ``on_complete``.  The two
large-item sessions also share :class:`_ChunkSession`: the item's chunk
count, the ``have`` set seeded from the store, ``missing`` and the
bookkeeping of a newly arrived chunk.  Each session keeps only its own
protocol: when to begin a round and when to stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bloom.bloom_filter import NullFilter, make_round_filter
from repro.core.messages import (
    CdiResponse,
    ChunkResponse,
    DiscoveryResponse,
)
from repro.core.rounds import RoundConfig, RoundController
from repro.data import attributes as attr
from repro.data.descriptor import DataDescriptor
from repro.data.item import Chunk
from repro.data.predicate import QuerySpec
from repro.errors import ConfigurationError
from repro.node.device import Device
from repro.sim.process import Timer


@dataclass
class SessionResult:
    """Outcome of one consumer session (inputs to the paper's metrics)."""

    started_at: float
    finished_at: float = 0.0
    last_new_at: Optional[float] = None
    received: int = 0
    rounds: int = 0
    completed: bool = False

    @property
    def latency(self) -> float:
        """Query sent → last new entry/chunk arrival (§VI-A)."""
        if self.last_new_at is None:
            return 0.0
        return self.last_new_at - self.started_at


class _Session:
    """The life cycle every consumer session shares.

    :meth:`start` may run once: it attaches :meth:`_listeners` to the
    device, opens the :class:`SessionResult` and hands over to
    :meth:`_begin`.  :meth:`_finish` stops the round controller, fills in
    the result, detaches and calls ``on_complete``.
    """

    def __init__(
        self,
        device: Device,
        round_config: Optional[RoundConfig],
        on_round_end: Callable[[], None],
        on_complete: Optional[Callable[..., None]],
    ) -> None:
        self.device = device
        self.round_config = round_config if round_config is not None else RoundConfig()
        self.on_complete = on_complete
        self.controller = RoundController(
            device.sim, self.round_config, on_round_end, node=device.node_id
        )
        self.result: Optional[SessionResult] = None
        self._round_new = 0
        self._running = False
        self._started = False
        self._finished = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Attach to the device, seed from its store and begin."""
        if self._started:
            raise ConfigurationError("session already started")
        self._started = True
        self._running = True
        self.result = SessionResult(started_at=self.device.sim.now)
        for listeners, callback in self._listeners():
            listeners.append(callback)
        self._begin()

    @property
    def done(self) -> bool:
        """Whether the session has completed (fully or given up)."""
        return self._finished

    def _listeners(self) -> List[Tuple[list, Callable]]:
        """(device listener list, callback) pairs, in attach order."""
        raise NotImplementedError

    def _begin(self) -> None:
        """Seed from the local store and send the first query."""
        raise NotImplementedError

    def _received_count(self) -> int:
        raise NotImplementedError

    def _record_new(self) -> None:
        """A new entry or chunk arrived: count it and stamp the latency."""
        assert self.result is not None
        self._round_new += 1
        self.result.last_new_at = self.device.sim.now

    def _finish(self, completed: bool = True) -> None:
        assert self.result is not None
        self._running = False
        self._finished = True
        self.controller.stop()
        self.result.finished_at = self.device.sim.now
        self.result.received = self._received_count()
        self.result.completed = completed
        for listeners, callback in self._listeners():
            if callback in listeners:
                listeners.remove(callback)
        if self.on_complete is not None:
            self.on_complete(self)


class DiscoverySession(_Session):
    """Multi-round pervasive data discovery for one consumer."""

    def __init__(
        self,
        device: Device,
        spec: Optional[QuerySpec] = None,
        round_config: Optional[RoundConfig] = None,
        want_payload: bool = False,
        redundancy_detection: Optional[bool] = None,
        on_complete: Optional[Callable[["DiscoverySession"], None]] = None,
    ) -> None:
        super().__init__(device, round_config, self._round_ended, on_complete)
        self.spec = spec if spec is not None else QuerySpec()
        self.want_payload = want_payload
        if redundancy_detection is None:
            redundancy_detection = device.config.protocol.redundancy_detection
        self.redundancy_detection = redundancy_detection
        self.received: Set[DataDescriptor] = set()
        self.received_payloads: Dict[DataDescriptor, Chunk] = {}

    def _listeners(self) -> List[Tuple[list, Callable]]:
        device = self.device
        return [
            (device.metadata_listeners, self._on_metadata),
            (device.chunk_listeners, self._on_chunk),
            (device.response_listeners, self._on_response),
        ]

    def _begin(self) -> None:
        device = self.device
        # Entries already held locally count as received (Fig. 7's last
        # consumer had cached >95% before sending its own query).
        if self.want_payload:
            for chunk in device.store.match_chunks(self.spec):
                self.received.add(chunk.descriptor)
                self.received_payloads[chunk.descriptor] = chunk
        else:
            for descriptor in device.store.match_metadata(self.spec):
                self.received.add(descriptor)
        self._begin_round()

    def _received_count(self) -> int:
        return len(self.received)

    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        round_index = self.controller.begin_round()
        self._round_new = 0
        if self.redundancy_detection:
            bloom = make_round_filter(
                (d.stable_key() for d in self.received),
                round_index,
                self.device.config.protocol.bloom_false_positive_rate,
                self.device.config.protocol.bloom_max_bits,
            )
        else:
            bloom = NullFilter()
        self.device.discovery.issue_query(
            self.spec,
            bloom,
            round_index=round_index,
            want_payload=self.want_payload,
        )

    def _round_ended(self) -> None:
        assert self.result is not None
        self.result.rounds = self.controller.round_index
        total = len(self.received)
        if self.controller.should_start_new_round(self._round_new, total):
            self._begin_round()
        else:
            self._finish()

    # ------------------------------------------------------------------
    def _on_metadata(self, descriptor: DataDescriptor) -> None:
        if self.want_payload or not self._running:
            return
        if descriptor in self.received or not self.spec.matches(descriptor):
            return
        self.received.add(descriptor)
        self._record_new()

    def _on_chunk(self, chunk: Chunk) -> None:
        if not self.want_payload or not self._running:
            return
        if chunk.descriptor in self.received or not self.spec.matches(
            chunk.descriptor
        ):
            return
        self.received.add(chunk.descriptor)
        self.received_payloads[chunk.descriptor] = chunk
        self._record_new()

    def _on_response(self, message: object) -> None:
        if self._running and isinstance(message, DiscoveryResponse):
            self.controller.record_response()


class _ChunkSession(_Session):
    """The life cycle of a large-item session (PDR and MDR).

    Owns the item's chunk count, the ``have`` set seeded from the local
    store, ``missing`` and the bookkeeping of each new chunk; a session
    that already holds every chunk finishes at start.
    """

    def __init__(
        self,
        device: Device,
        item: DataDescriptor,
        total_chunks: Optional[int],
        round_config: Optional[RoundConfig],
        on_round_end: Callable[[], None],
        on_complete: Optional[Callable[..., None]],
    ) -> None:
        if total_chunks is None:
            declared = item.get(attr.TOTAL_CHUNKS)
            if declared is None:
                raise ConfigurationError(
                    "total_chunks not given and item descriptor lacks the "
                    "total_chunks attribute"
                )
            total_chunks = int(declared)
        super().__init__(device, round_config, on_round_end, on_complete)
        self.item = item.item_descriptor()
        self.total_chunks = total_chunks
        self.have: Set[int] = set()

    def _listeners(self) -> List[Tuple[list, Callable]]:
        device = self.device
        return [
            (device.chunk_listeners, self._on_chunk),
            (device.response_listeners, self._on_response),
        ]

    def _begin(self) -> None:
        self.have = set(
            cid
            for cid in self.device.store.chunk_ids_of(self.item)
            if cid < self.total_chunks
        )
        if len(self.have) >= self.total_chunks:
            self._finish(completed=True)
        else:
            self._request()

    def _request(self) -> None:
        """Send the first query for the missing chunks."""
        raise NotImplementedError

    def _received_count(self) -> int:
        return len(self.have)

    @property
    def missing(self) -> Set[int]:
        """Chunk ids not yet received."""
        return set(range(self.total_chunks)) - self.have

    def _on_chunk(self, chunk: Chunk) -> None:
        if not self._running:
            return
        if chunk.item_descriptor != self.item:
            return
        chunk_id = chunk.chunk_id
        if chunk_id in self.have or chunk_id >= self.total_chunks:
            return
        self.have.add(chunk_id)
        self._record_new()
        if len(self.have) >= self.total_chunks:
            self._finish(completed=True)
        else:
            self._progressed()

    def _progressed(self) -> None:
        """A new chunk arrived and some are still missing."""


class RetrievalSession(_ChunkSession):
    """Two-phase PDR for one large data item.

    Phase 1 unless CDI routes to every missing chunk are already known.
    """

    def __init__(
        self,
        device: Device,
        item: DataDescriptor,
        total_chunks: Optional[int] = None,
        round_config: Optional[RoundConfig] = None,
        stall_timeout_s: float = 5.0,
        max_attempts: int = 15,
        on_complete: Optional[Callable[["RetrievalSession"], None]] = None,
    ) -> None:
        super().__init__(
            device,
            item,
            total_chunks,
            round_config,
            self._cdi_round_ended,
            on_complete,
        )
        self.stall_timeout_s = stall_timeout_s
        self.max_attempts = max_attempts
        self.phase = "idle"  # idle -> cdi -> chunks -> done
        self._attempts = 0
        self._stall_timer = Timer(device.sim, self._stalled)

    def _request(self) -> None:
        if self._cdi_covers_missing():
            self._enter_chunk_phase()
        else:
            self._enter_cdi_phase()

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def _enter_cdi_phase(self) -> None:
        self.phase = "cdi"
        self.controller.begin_round()
        self.device.cdi.issue_query(self.item)

    def _cdi_round_ended(self) -> None:
        if self.phase == "cdi":
            self._enter_chunk_phase()

    def _cdi_covers_missing(self) -> bool:
        table = self.device.cdi_table
        return all(
            table.best_hop(self.item, chunk_id) is not None
            for chunk_id in self.missing
        )

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def _enter_chunk_phase(self) -> None:
        self.phase = "chunks"
        missing = self.missing
        if not missing:
            self._finish(completed=True)
            return
        self.device.chunks.request_chunks(self.item, missing)
        self._stall_timer.start(self.stall_timeout_s)

    def _stalled(self) -> None:
        """No chunk arrived for a while: retry or refresh CDI."""
        if not self._running or self.phase != "chunks":
            return
        missing = self.missing
        if not missing:
            self._finish(completed=True)
            return
        self._attempts += 1
        if self._attempts > self.max_attempts:
            self._finish(completed=False)
            return
        # Every third stall (or when routes are missing) refresh the CDI;
        # otherwise just re-request along current routes.
        if self._attempts % 3 == 0 or not self._cdi_covers_missing():
            self._enter_cdi_phase()
        else:
            self._enter_chunk_phase()

    # ------------------------------------------------------------------
    def _progressed(self) -> None:
        if self.phase == "chunks":
            self._stall_timer.start(self.stall_timeout_s)

    def _on_response(self, message: object) -> None:
        if self._running and self.phase == "cdi" and isinstance(message, CdiResponse):
            self.controller.record_response()

    def _finish(self, completed: bool = True) -> None:
        self.phase = "done"
        self._stall_timer.cancel()
        assert self.result is not None
        self.result.rounds = self._attempts + 1
        super()._finish(completed)


class MdrSession(_ChunkSession):
    """Multi-round data retrieval baseline for one large data item."""

    def __init__(
        self,
        device: Device,
        item: DataDescriptor,
        total_chunks: Optional[int] = None,
        round_config: Optional[RoundConfig] = None,
        max_empty_rounds: int = 3,
        on_complete: Optional[Callable[["MdrSession"], None]] = None,
    ) -> None:
        super().__init__(
            device, item, total_chunks, round_config, self._round_ended, on_complete
        )
        self.max_empty_rounds = max_empty_rounds
        self._empty_rounds = 0

    def _request(self) -> None:
        self._begin_round()

    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        round_index = self.controller.begin_round()
        self._round_new = 0
        self.device.mdr.issue_round(
            self.item, self.total_chunks, self.have, round_index
        )

    def _round_ended(self) -> None:
        if not self._running:
            return
        assert self.result is not None
        self.result.rounds = self.controller.round_index
        if not self.missing:
            self._finish(completed=True)
            return
        if self._round_new == 0:
            self._empty_rounds += 1
        else:
            self._empty_rounds = 0
        if self._empty_rounds >= self.max_empty_rounds:
            self._finish(completed=False)
            return
        self._begin_round()

    def _on_response(self, message: object) -> None:
        if self._running and isinstance(message, ChunkResponse):
            self.controller.record_response()
