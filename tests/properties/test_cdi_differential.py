"""Differential test: the CDI table against a list-rebuild reference model.

:class:`ReferenceCdiTable` is the table as it was before slots carried an
expiry bound and before a response was learnt in one call: every call
rebuilds the list of unexpired entries, and each pair is a call of its
own.  Random sequences of one-pair and whole-response updates, reads,
neighbor removals and clock advances must give identical return values,
entry order, chunk-key order (which records when a dead chunk's key was
deleted) and ``observe_state()``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cdi import CdiEntry, CdiTable
from repro.data.descriptor import DataDescriptor, make_descriptor
from tests.helpers import cdi_learn

ITEMS = (
    make_descriptor("media", "video", name="a"),
    make_descriptor("media", "video", name="b"),
)


class ReferenceCdiTable:
    """The list-rebuild CDI table, kept verbatim as the model."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._entries: Dict[DataDescriptor, Dict[int, List[CdiEntry]]] = {}

    def update(self, item, chunk_id, hop_count, neighbor, ttl) -> bool:
        item = item.item_descriptor()
        now = self._clock()
        expires_at = now + ttl
        chunk_map = self._entries.setdefault(item, {})
        entries = [e for e in chunk_map.get(chunk_id, []) if not e.expired(now)]
        if not entries:
            chunk_map[chunk_id] = [CdiEntry(chunk_id, hop_count, neighbor, expires_at)]
            return True
        best = entries[0].hop_count
        if hop_count < best:
            chunk_map[chunk_id] = [CdiEntry(chunk_id, hop_count, neighbor, expires_at)]
            return True
        if hop_count == best:
            for entry in entries:
                if entry.neighbor == neighbor:
                    entry.expires_at = max(entry.expires_at, expires_at)
                    chunk_map[chunk_id] = entries
                    return False
            entries.append(CdiEntry(chunk_id, hop_count, neighbor, expires_at))
            chunk_map[chunk_id] = entries
            return True
        chunk_map[chunk_id] = entries
        return False

    def best_entries(self, item, chunk_id) -> List[CdiEntry]:
        item = item.item_descriptor()
        now = self._clock()
        chunk_map = self._entries.get(item)
        if not chunk_map:
            return []
        entries = [e for e in chunk_map.get(chunk_id, []) if not e.expired(now)]
        if entries:
            chunk_map[chunk_id] = entries
        else:
            chunk_map.pop(chunk_id, None)
        return entries

    def best_hop(self, item, chunk_id) -> Optional[int]:
        entries = self.best_entries(item, chunk_id)
        return entries[0].hop_count if entries else None

    def known_chunks(self, item) -> Set[int]:
        item = item.item_descriptor()
        chunk_map = self._entries.get(item)
        if not chunk_map:
            return set()
        return {
            chunk_id
            for chunk_id in list(chunk_map)
            if self.best_entries(item, chunk_id)
        }

    def remove_neighbor(self, neighbor) -> None:
        for chunk_map in self._entries.values():
            for chunk_id in list(chunk_map):
                remaining = [e for e in chunk_map[chunk_id] if e.neighbor != neighbor]
                if remaining:
                    chunk_map[chunk_id] = remaining
                else:
                    del chunk_map[chunk_id]

    def observe_state(self) -> Dict[str, object]:
        now = self._clock()
        size = 0
        best: Dict[str, int] = {}
        for item, chunk_map in self._entries.items():
            prefix = item.stable_key().hex()[:12]
            for chunk_id, entries in chunk_map.items():
                live = [e for e in entries if not e.expired(now)]
                if not live:
                    continue
                size += len(live)
                best[f"{prefix}:{chunk_id}"] = min(e.hop_count for e in live)
        return {"size": size, "best": best}


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _rows(entries) -> list:
    return [(e.chunk_id, e.hop_count, e.neighbor, e.expires_at) for e in entries]


def _key_order(table) -> list:
    return [(item, list(chunk_map)) for item, chunk_map in table._entries.items()]


def _raw(table) -> list:
    """Every slot as stored, expired entries included."""
    return [
        (item, chunk_id, [(chunk_id, slot.hop, n, t) for n, t in slot.neighbors.items()])
        for item, chunk_map in table._entries.items()
        for chunk_id, slot in chunk_map.items()
    ]


def _reference_live(reference: ReferenceCdiTable) -> list:
    """What ``live_entries()`` yields, read off the reference without purging."""
    now = reference._clock()
    rows = []
    for item, chunk_map in reference._entries.items():
        for chunk_id, entries in chunk_map.items():
            live = [e for e in entries if not e.expired(now)]
            if live:
                rows.append((item, chunk_id, _rows(live)))
    return rows


def _state(table) -> tuple:
    state = table.observe_state()
    return state["size"], list(state["best"].items())


# Item index, and whether to pass a chunk descriptor (normalised to the item).
items = st.tuples(st.integers(0, len(ITEMS) - 1), st.booleans())
# Few chunks, hops and neighbors, so updates keep landing on the same
# slot at the same distance (the append and refresh paths).
chunk_ids = st.integers(0, 2)
# Integer times and TTLs so expiries land exactly on clock ticks.
operations = st.one_of(
    st.tuples(
        st.just("update"), items, chunk_ids, st.integers(0, 2),
        st.integers(0, 2), st.integers(0, 6),
    ),
    # A whole response: advertised (chunk, hop) pairs, repeats allowed,
    # from one neighbor with one TTL.
    st.tuples(
        st.just("batch"), items,
        st.lists(st.tuples(chunk_ids, st.integers(0, 2)), min_size=1, max_size=6),
        st.integers(0, 2), st.integers(0, 6),
    ),
    st.tuples(st.just("best_entries"), items, chunk_ids),
    st.tuples(st.just("best_hop"), items, chunk_ids),
    st.tuples(st.just("known_chunks"), items),
    st.tuples(st.just("best_hops"), items),
    st.tuples(st.just("remove_neighbor"), st.integers(0, 2)),
    st.tuples(st.just("advance"), st.integers(0, 4)),
)


def _item(spec) -> DataDescriptor:
    index, as_chunk = spec
    item = ITEMS[index]
    return item.chunk_descriptor(7) if as_chunk else item


def _reference_best_hops(reference: ReferenceCdiTable, item) -> Dict[int, int]:
    """The old ``_local_pairs`` read: ``known_chunks`` then ``best_hop``."""
    return {
        chunk_id: reference.best_hop(item, chunk_id)
        for chunk_id in reference.known_chunks(item)
    }


def _check_batch(table, reference, item, pairs, neighbor, ttl) -> None:
    """One ``update`` for the response against its pairs one by one."""
    improved = sum(
        reference.update(item, chunk_id, hop + 1, neighbor, ttl)
        for chunk_id, hop in pairs
    )
    assert table.update(item, pairs, neighbor, ttl) == improved
    assert [
        (entry_item, chunk_id, _rows(entries))
        for entry_item, chunk_id, entries in table.live_entries()
    ] == _reference_live(reference)
    for chunk_id in dict.fromkeys(chunk_id for chunk_id, _ in pairs):
        assert _rows(table.best_entries(item, chunk_id)) == _rows(
            reference.best_entries(item, chunk_id)
        )
    assert table.best_hops(item) == _reference_best_hops(reference, item)


# Pins every batch path: a repeated chunk id and a better hop inside one
# response, equal-hop neighbor growth, a refresh with a shorter TTL (which
# must not lower the expiry), expiry between responses, and a reset.
@example(
    [
        ("batch", (0, False), [(0, 1), (0, 1), (1, 2), (0, 0)], 0, 5),
        ("batch", (0, False), [(0, 0), (1, 2)], 1, 3),
        ("batch", (0, True), [(0, 0), (0, 0)], 0, 1),
        ("advance", 2),
        ("batch", (0, False), [(0, 0)], 2, 2),
        ("advance", 2),
        ("batch", (0, False), [(1, 1), (0, 0), (1, 2)], 2, 4),
        ("advance", 3),
        ("batch", (0, False), [(0, 1), (1, 0)], 1, 1),
    ]
)
@given(st.lists(operations, min_size=20, max_size=100))
@settings(max_examples=150)
def test_table_matches_list_rebuild_reference(ops):
    clock = Clock()
    table = CdiTable(clock)
    reference = ReferenceCdiTable(clock)
    for op in ops:
        name = op[0]
        if name == "update":
            _, spec, chunk_id, hop, neighbor, ttl = op
            item = _item(spec)
            assert cdi_learn(table, item, chunk_id, hop, neighbor, ttl) == (
                reference.update(item, chunk_id, hop, neighbor, ttl)
            )
        elif name == "batch":
            _, spec, pairs, neighbor, ttl = op
            _check_batch(table, reference, _item(spec), pairs, neighbor, ttl)
        elif name == "best_entries":
            item = _item(op[1])
            assert _rows(table.best_entries(item, op[2])) == _rows(
                reference.best_entries(item, op[2])
            )
        elif name == "best_hop":
            item = _item(op[1])
            assert table.best_hop(item, op[2]) == reference.best_hop(item, op[2])
        elif name == "known_chunks":
            item = _item(op[1])
            assert table.known_chunks(item) == reference.known_chunks(item)
        elif name == "best_hops":
            item = _item(op[1])
            assert table.best_hops(item) == _reference_best_hops(reference, item)
        elif name == "remove_neighbor":
            table.remove_neighbor(op[1])
            reference.remove_neighbor(op[1])
        else:
            clock.now += op[1]
        assert _key_order(table) == _key_order(reference)
        assert _state(table) == _state(reference)


@given(st.lists(operations, min_size=20, max_size=100))
@settings(max_examples=50)
def test_observers_never_purge(ops):
    """``live_entries`` and ``observe_state`` leave the table as they found it."""
    clock = Clock()
    table = CdiTable(clock)
    for op in ops:
        if op[0] == "update":
            _, spec, chunk_id, hop, neighbor, ttl = op
            cdi_learn(table, _item(spec), chunk_id, hop, neighbor, ttl)
        elif op[0] == "batch":
            _, spec, pairs, neighbor, ttl = op
            table.update(_item(spec), pairs, neighbor, ttl)
        elif op[0] == "advance":
            clock.now += op[1]
    before = _raw(table)
    live = [
        (item, chunk_id, _rows(entries))
        for item, chunk_id, entries in table.live_entries()
    ]
    table.observe_state()
    after = _raw(table)
    assert after == before
    assert live == [
        (item, chunk_id, [row for row in rows if row[3] > clock.now])
        for item, chunk_id, rows in before
        if any(row[3] > clock.now for row in rows)
    ]
