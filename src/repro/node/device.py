"""A PDS device: radio stack + data store + protocol engines.

Every node in the network runs the same ``Device``; consumers additionally
drive sessions (:mod:`repro.core.consumer`) on top of their device.  The
device dispatches incoming payloads to the matching engine and exposes the
producer-side API (:meth:`add_item`, :meth:`add_metadata`) plus listener
hooks used by sessions and metrics.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional

from repro.core.cdi import CdiTable
from repro.core.discovery import DiscoveryEngine
from repro.core.interest import InterestData, InterestEngine, InterestQuery
from repro.core.mdr import MdrEngine
from repro.core.messages import (
    CdiQuery,
    CdiResponse,
    ChunkQuery,
    ChunkResponse,
    DiscoveryQuery,
    DiscoveryResponse,
    MdrQuery,
    PdsMessage,
)
from repro.core.retrieval import CdiEngine, ChunkEngine
from repro.data.descriptor import DataDescriptor
from repro.data.item import Chunk, DataItem
from repro.data.store import DataStore
from repro.net.faces import BroadcastFace
from repro.net.medium import BroadcastMedium
from repro.net.message import Frame
from repro.net.topology import NodeId
from repro.node.config import DeviceConfig
from repro.sim.simulator import Simulator

#: Listener signatures.
MetadataListener = Callable[[DataDescriptor], None]
ChunkListener = Callable[[Chunk], None]
ResponseListener = Callable[[PdsMessage], None]


class Device:
    """One participating edge device."""

    def __init__(
        self,
        sim: Simulator,
        medium: BroadcastMedium,
        node_id: NodeId,
        rng: random.Random,
        config: Optional[DeviceConfig] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.rng = rng
        self.config = config if config is not None else DeviceConfig()
        self.store = DataStore(
            clock=lambda: sim.now,
            metadata_ttl=self.config.protocol.metadata_ttl_s,
        )
        self.cdi_table = CdiTable(clock=lambda: sim.now)
        self.face = BroadcastFace(
            sim,
            medium,
            node_id,
            rng,
            radio_config=self.config.radio,
            bucket_config=self.config.bucket,
            reliability_config=self.config.reliability,
            use_leaky_bucket=self.config.use_leaky_bucket,
        )
        self.face.on_receive(self._dispatch)

        self.discovery = DiscoveryEngine(self)
        self.cdi = CdiEngine(self)
        self.chunks = ChunkEngine(self)
        self.mdr = MdrEngine(self)
        self.interest = InterestEngine(self)

        self.metadata_listeners: List[MetadataListener] = []
        self.chunk_listeners: List[ChunkListener] = []
        self.response_listeners: List[ResponseListener] = []
        self.alive = True

    # ------------------------------------------------------------------
    # Producer-side API
    # ------------------------------------------------------------------
    def add_item(self, item: DataItem) -> None:
        """Produce a data item locally: store all chunks + metadata."""
        for chunk in item.chunks():
            self.store.insert_chunk(chunk)

    def add_chunk(self, chunk: Chunk) -> None:
        """Hold one chunk of an item (partial copies, workload setup)."""
        self.store.insert_chunk(chunk)

    def add_metadata(self, descriptor: DataDescriptor) -> None:
        """Hold a metadata entry with payload present locally.

        Used by workloads where the entry itself *is* the datum of
        interest (pure discovery experiments).
        """
        self.store.insert_metadata((descriptor,), has_payload=True)

    # ------------------------------------------------------------------
    # Caching (shared by engines; fires listeners on novelty)
    # ------------------------------------------------------------------
    def cache_metadata(
        self, descriptors: Iterable[DataDescriptor]
    ) -> List[DataDescriptor]:
        """Opportunistically cache metadata entries heard on the air.

        Listeners fire for each new entry, in the order given; the new
        entries are returned in that order.
        """
        new = self.store.insert_metadata(descriptors, has_payload=False)
        listeners = self.metadata_listeners
        if listeners:
            for descriptor in new:
                for listener in listeners:
                    listener(descriptor)
        return new

    def cache_chunk(self, chunk: Chunk) -> bool:
        """Opportunistically cache a chunk payload heard on the air.

        Storage is unbounded, so every new payload is kept; listeners
        fire only when the payload was new.  Returns whether it was.
        """
        if self.store.has_chunk(chunk.descriptor):
            return False
        self.store.insert_chunk(chunk)
        for listener in self.chunk_listeners:
            listener(chunk)
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, frame: Frame, addressed: bool) -> None:
        if not self.alive:
            return
        payload = frame.payload
        if isinstance(payload, DiscoveryQuery):
            self.discovery.handle_query(payload, addressed)
        elif isinstance(payload, DiscoveryResponse):
            self._notify_response(payload, addressed)
            self.discovery.handle_response(payload, addressed)
        elif isinstance(payload, CdiQuery):
            self.cdi.handle_query(payload, addressed)
        elif isinstance(payload, CdiResponse):
            self._notify_response(payload, addressed)
            self.cdi.handle_response(payload, addressed)
        elif isinstance(payload, ChunkQuery):
            self.chunks.handle_query(payload, addressed)
        elif isinstance(payload, ChunkResponse):
            self._notify_response(payload, addressed)
            self.chunks.handle_response(payload, addressed)
            self.mdr.handle_response(payload, addressed)
        elif isinstance(payload, MdrQuery):
            self.mdr.handle_query(payload, addressed)
        elif isinstance(payload, InterestQuery):
            self.interest.handle_query(payload, addressed)
        elif isinstance(payload, InterestData):
            self._notify_response(payload, addressed)
            self.interest.handle_response(payload, addressed)

    def _notify_response(self, payload: PdsMessage, addressed: bool) -> None:
        if addressed:
            for listener in self.response_listeners:
                listener(payload)

    # ------------------------------------------------------------------
    def observe_state(self) -> dict:
        """Flight-recorder view of this device's protocol state.

        Composes the strictly read-only ``observe_state()`` views of every
        table along the stack; sampling a device never purges, emits, or
        consumes randomness.
        """
        return {
            "lqt": {
                "disc": self.discovery.observe_state(),
                "cdi": self.cdi.observe_state(),
                "chunk": self.chunks.observe_state(),
                "mdr": self.mdr.observe_state(),
                "pit": self.interest.observe_state(),
            },
            "cdi": self.cdi_table.observe_state(),
            "store": self.store.observe_state(),
            "face": self.face.observe_state(),
        }

    def leave(self) -> None:
        """The user walks away: tear down the stack (data leaves too)."""
        self.alive = False
        self.face.shutdown()

    def __repr__(self) -> str:
        # The raw table length: a repr must never purge (purge timing
        # decides the store's order, hence response packing).
        metadata = self.store.observe_state()["metadata"]
        return f"Device(id={self.node_id}, metadata={metadata})"
