"""Chunk Distribution Information: per-chunk distance-vector state (§IV-A).

A CDI entry says "chunk ``chunk_id`` of item ``item`` can be retrieved via
``neighbor`` at ``hop_count`` hops".  The table keeps, per chunk, only the
entries at the current minimum hop count — multiple entries when several
neighbors offer the same least distance.  Entries expire so obsolete
routing state does not linger after copies move away.

Expiry is lazy: :meth:`CdiTable.update`, :meth:`CdiTable.best_entries`
and the calls built on them filter expired entries out of the slot they
touch, and a read that finds nothing live deletes the chunk's key.  Each
(item, chunk) slot keeps a lower bound on its entries' earliest expiry: an
append lowers it, a replacement resets it, and a refresh only raises an
expiry, so it stays a bound.  A call before that bound skips the filter,
which then could drop nothing; live-entry order and key deletion timing —
and with them the order :meth:`CdiTable.observe_state` reports in — are
exactly those of filtering on every call.  Observers
(:meth:`CdiTable.live_entries`, :meth:`CdiTable.observe_state`) never
purge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.data.descriptor import DataDescriptor
from repro.net.topology import NodeId


@dataclass
class CdiEntry:
    """One routing entry for a chunk."""

    chunk_id: int
    hop_count: int
    neighbor: NodeId
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class _Slot:
    """One chunk's best-hop entries and a lower bound on their earliest expiry."""

    __slots__ = ("entries", "bound")

    def __init__(self, entry: CdiEntry) -> None:
        self.reset(entry)

    def reset(self, entry: CdiEntry) -> None:
        """Hold ``entry`` alone (a new chunk or a smaller distance)."""
        self.entries = [entry]
        self.bound = entry.expires_at

    def live(self, now: float) -> List[CdiEntry]:
        """The unexpired entries, dropping expired ones once the bound is reached."""
        if now >= self.bound:
            entries = [e for e in self.entries if not e.expired(now)]
            self.entries = entries
            self.bound = min((e.expires_at for e in entries), default=math.inf)
        return self.entries

    def peek(self, now: float) -> List[CdiEntry]:
        """The unexpired entries, leaving the slot as it is."""
        if now < self.bound:
            return self.entries
        return [e for e in self.entries if not e.expired(now)]


class CdiTable:
    """Per-item, per-chunk best-distance neighbor sets."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        # item -> chunk_id -> slot of best-hop entries
        self._entries: Dict[DataDescriptor, Dict[int, _Slot]] = {}

    # ------------------------------------------------------------------
    def update(
        self,
        item: DataDescriptor,
        chunk_id: int,
        hop_count: int,
        neighbor: NodeId,
        ttl: float,
    ) -> bool:
        """Learn that ``chunk_id`` is reachable via ``neighbor``.

        Implements §IV-A's replacement rule: a smaller distance replaces
        existing entries; an equal distance adds the neighbor; a larger
        distance is ignored (but refreshes an existing entry for the same
        neighbor at the same distance).

        Returns:
            True if the table improved (new chunk, smaller hop, or new
            equal-distance neighbor).
        """
        item = item.item_descriptor()
        now = self._clock()
        expires_at = now + ttl
        chunk_map = self._entries.get(item)
        if chunk_map is None:
            chunk_map = self._entries[item] = {}
        slot = chunk_map.get(chunk_id)
        if slot is None:
            chunk_map[chunk_id] = _Slot(CdiEntry(chunk_id, hop_count, neighbor, expires_at))
            return True
        entries = slot.live(now)
        if not entries or hop_count < entries[0].hop_count:
            slot.reset(CdiEntry(chunk_id, hop_count, neighbor, expires_at))
            return True
        if hop_count == entries[0].hop_count:
            for entry in entries:
                if entry.neighbor == neighbor:
                    entry.expires_at = max(entry.expires_at, expires_at)
                    return False
            entries.append(CdiEntry(chunk_id, hop_count, neighbor, expires_at))
            slot.bound = min(slot.bound, expires_at)
            return True
        return False

    # ------------------------------------------------------------------
    def best_entries(self, item: DataDescriptor, chunk_id: int) -> List[CdiEntry]:
        """Unexpired least-hop entries for a chunk (possibly empty).

        The list is the table's own: read it, do not keep or mutate it.
        """
        item = item.item_descriptor()
        chunk_map = self._entries.get(item)
        if not chunk_map:
            return []
        slot = chunk_map.get(chunk_id)
        if slot is None:
            return []
        entries = slot.live(self._clock())
        if not entries:
            del chunk_map[chunk_id]
        return entries

    def best_hop(self, item: DataDescriptor, chunk_id: int) -> Optional[int]:
        """The least known hop count for a chunk, or None."""
        entries = self.best_entries(item, chunk_id)
        return entries[0].hop_count if entries else None

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
            entries = slot.live(now)
            if entries:
                hops[chunk_id] = entries[0].hop_count
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
                slot = chunk_map[chunk_id]
                remaining = [e for e in slot.entries if e.neighbor != neighbor]
                if remaining:
                    # A subset keeps the slot's expiry bound valid.
                    slot.entries = remaining
                else:
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
                entries = slot.peek(now)
                if entries:
                    yield item, chunk_id, entries

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
