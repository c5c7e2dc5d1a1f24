"""Chunk Distribution Information: per-chunk distance-vector state (§IV-A).

A CDI entry says "chunk ``chunk_id`` of item ``item`` can be retrieved via
``neighbor`` at ``hop_count`` hops".  The table keeps, per chunk, only the
entries at the current minimum hop count — multiple entries when several
neighbors offer the same least distance.  Entries expire so obsolete
routing state does not linger after copies move away.

A node learns a whole CDI response in one :meth:`CdiTable.update`: the
item's chunk map, the clock and the new expiry are resolved once, and
each advertised ChunkId–HopCount pair is stored one hop further, exactly
as if the pairs had been applied one by one at the same instant.  Slots
hold no entry objects: an (item, chunk) slot is its least hop count, a
``{neighbor: expires_at}`` dict in arrival order and a lower bound on
those expiries.  :class:`CdiEntry` is only the read view that
:meth:`CdiTable.best_entries` and :meth:`CdiTable.live_entries` build.

Expiry is lazy: :meth:`CdiTable.update`, :meth:`CdiTable.best_entries`
and the calls built on them filter expired neighbors out of the slot they
touch, and a read that finds nothing live deletes the chunk's key.  Each
slot's expiry bound is lowered by an append, reset by a replacement, and
left alone by a refresh, which only raises an expiry, so it stays a
bound.  A call before that bound skips the filter, which then could drop
nothing; live-entry order and key deletion timing — and with them the
order :meth:`CdiTable.observe_state` reports in — are exactly those of
filtering on every call.  Observers (:meth:`CdiTable.live_entries`,
:meth:`CdiTable.observe_state`) never purge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.data.descriptor import DataDescriptor
from repro.net.topology import NodeId


@dataclass
class CdiEntry:
    """Read view of one routing entry for a chunk."""

    chunk_id: int
    hop_count: int
    neighbor: NodeId
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class _Slot:
    """One chunk's least hop, its neighbors' expiries and a bound on the earliest."""

    __slots__ = ("hop", "neighbors", "bound")

    def __init__(self, hop: int, neighbor: NodeId, expires_at: float) -> None:
        self.reset(hop, neighbor, expires_at)

    def reset(self, hop: int, neighbor: NodeId, expires_at: float) -> None:
        """Hold ``neighbor`` alone at ``hop`` (a new chunk or a smaller distance)."""
        self.hop = hop
        self.neighbors = {neighbor: expires_at}
        self.bound = expires_at

    def live(self, now: float) -> Dict[NodeId, float]:
        """The unexpired neighbors, dropping expired ones once the bound is reached."""
        if now >= self.bound:
            neighbors = {n: t for n, t in self.neighbors.items() if now < t}
            self.neighbors = neighbors
            self.bound = min(neighbors.values(), default=math.inf)
        return self.neighbors

    def peek(self, now: float) -> Dict[NodeId, float]:
        """The unexpired neighbors, leaving the slot as it is."""
        if now < self.bound:
            return self.neighbors
        return {n: t for n, t in self.neighbors.items() if now < t}

    def view(self, chunk_id: int, neighbors: Dict[NodeId, float]) -> List[CdiEntry]:
        hop = self.hop
        return [CdiEntry(chunk_id, hop, n, t) for n, t in neighbors.items()]


class CdiTable:
    """Per-item, per-chunk best-distance neighbor sets."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        # item -> chunk_id -> slot of best-hop neighbors
        self._entries: Dict[DataDescriptor, Dict[int, _Slot]] = {}

    # ------------------------------------------------------------------
    def update(
        self,
        item: DataDescriptor,
        pairs: Iterable[Tuple[int, int]],
        neighbor: NodeId,
        ttl: float,
    ) -> int:
        """Learn the ChunkId–HopCount ``pairs`` that ``neighbor`` advertised.

        Each chunk is stored one hop further than advertised, by §IV-A's
        replacement rule: a smaller distance replaces existing entries; an
        equal distance adds the neighbor (or refreshes its expiry if it is
        already there); a larger distance is ignored.  Pairs apply in
        order, so a repeated chunk id sees the earlier pairs' effect.

        Returns:
            How many pairs improved the table (new chunk, smaller hop, or
            new equal-distance neighbor).
        """
        item = item.item_descriptor()
        now = self._clock()
        expires_at = now + ttl
        chunk_map = self._entries.get(item)
        if chunk_map is None:
            chunk_map = self._entries[item] = {}
        improved = 0
        for chunk_id, advertised in pairs:
            hop = advertised + 1
            slot = chunk_map.get(chunk_id)
            if slot is None:
                chunk_map[chunk_id] = _Slot(hop, neighbor, expires_at)
                improved += 1
                continue
            neighbors = slot.neighbors if now < slot.bound else slot.live(now)
            if not neighbors or hop < slot.hop:
                slot.reset(hop, neighbor, expires_at)
                improved += 1
            elif hop == slot.hop:
                known = neighbors.get(neighbor)
                if known is None:
                    neighbors[neighbor] = expires_at
                    if expires_at < slot.bound:
                        slot.bound = expires_at
                    improved += 1
                elif expires_at > known:
                    neighbors[neighbor] = expires_at
        return improved

    # ------------------------------------------------------------------
    def _live_slot(self, item: DataDescriptor, chunk_id: int) -> Optional[_Slot]:
        """The chunk's slot if it has a live neighbor; deletes a dead key."""
        chunk_map = self._entries.get(item.item_descriptor())
        if not chunk_map:
            return None
        slot = chunk_map.get(chunk_id)
        if slot is None:
            return None
        if not slot.live(self._clock()):
            del chunk_map[chunk_id]
            return None
        return slot

    def best_entries(self, item: DataDescriptor, chunk_id: int) -> List[CdiEntry]:
        """Unexpired least-hop entries for a chunk (possibly empty)."""
        slot = self._live_slot(item, chunk_id)
        if slot is None:
            return []
        return slot.view(chunk_id, slot.neighbors)

    def best_hop(self, item: DataDescriptor, chunk_id: int) -> Optional[int]:
        """The least known hop count for a chunk, or None."""
        slot = self._live_slot(item, chunk_id)
        return None if slot is None else slot.hop

    def best_hops(self, item: DataDescriptor) -> Dict[int, int]:
        """Chunk id → least live hop count for every chunk known for ``item``.

        One pass over the item's slots, deleting the keys of chunks with
        nothing live exactly as :meth:`best_entries` on each would.
        """
        item = item.item_descriptor()
        chunk_map = self._entries.get(item)
        if not chunk_map:
            return {}
        now = self._clock()
        hops: Dict[int, int] = {}
        for chunk_id, slot in list(chunk_map.items()):
            if slot.live(now):
                hops[chunk_id] = slot.hop
            else:
                del chunk_map[chunk_id]
        return hops

    def known_chunks(self, item: DataDescriptor) -> Set[int]:
        """Chunk ids with at least one live entry for this item."""
        return set(self.best_hops(item))

    def remove_neighbor(self, neighbor: NodeId) -> None:
        """Drop all entries via a neighbor known to have left."""
        for chunk_map in self._entries.values():
            for chunk_id in list(chunk_map):
                neighbors = chunk_map[chunk_id].neighbors
                # Dropping a neighbor keeps the slot's expiry bound valid.
                neighbors.pop(neighbor, None)
                if not neighbors:
                    del chunk_map[chunk_id]

    def clear(self) -> None:
        """Forget all routing state."""
        self._entries.clear()

    # ------------------------------------------------------------------
    def live_entries(self) -> Iterator[Tuple[DataDescriptor, int, List[CdiEntry]]]:
        """``(item, chunk_id, live entries)`` for every slot with a live entry.

        Strictly read-only — expired entries are filtered, not dropped —
        so observers and validators never mutate routing state.
        """
        now = self._clock()
        for item, chunk_map in self._entries.items():
            for chunk_id, slot in chunk_map.items():
                neighbors = slot.peek(now)
                if neighbors:
                    yield item, chunk_id, slot.view(chunk_id, neighbors)

    def observe_state(self) -> Dict[str, object]:
        """Flight-recorder view: live entry count + per-chunk best hop.

        Read-only (see :meth:`live_entries`).  Keys use the same
        ``<item-hex12>:<chunk_id>`` form as the retrieval trace events.
        """
        size = 0
        best: Dict[str, int] = {}
        prefixes: Dict[DataDescriptor, str] = {}
        for item, chunk_id, entries in self.live_entries():
            size += len(entries)
            prefix = prefixes.get(item)
            if prefix is None:
                prefix = prefixes[item] = item.stable_key().hex()[:12]
            best[f"{prefix}:{chunk_id}"] = min(e.hop_count for e in entries)
        return {"size": size, "best": best}
