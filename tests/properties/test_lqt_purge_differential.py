"""Differential test: the expiry-bounded LQT against a scan-every-purge model.

:class:`ReferenceLqt` is the lingering query table as it was before it kept
a bound on its entries' earliest expiry: every purge scans the whole table.
Random inserts (re-inserts of a live or lapsed id included), lookups,
removals, walks and purges on a non-decreasing clock must give identical
return values, the same traced ``lqt_linger``/``lqt_expire`` events at the
same times and in the same order, the same stored ids and the same
``observe_state()``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.lqt import LingeringEntry, LingeringQueryTable
from repro.obs.trace import ListSink, TraceBus


class ReferenceLqt:
    """The scan-every-purge table, kept verbatim as the model."""

    def __init__(self, clock: Callable[[], float], trace: TraceBus, node: int) -> None:
        self._clock = clock
        self._trace = trace
        self._node = node
        self._entries: Dict[int, LingeringEntry] = {}

    def _emit(self, kind: str, query_id: int, entry: LingeringEntry) -> None:
        trace = self._trace
        if trace is not None and trace.enabled:
            trace.emit(
                kind,
                node=self._node,
                query_id=query_id,
                origin=entry.is_origin,
                expires_at=entry.expires_at,
                consumer=getattr(entry.query, "origin_id", None),
                round=getattr(entry.query, "round_index", None),
            )

    def __len__(self) -> int:
        self.purge()
        return len(self._entries)

    def exists(self, query_id: int) -> bool:
        entry = self._entries.get(query_id)
        if entry is None:
            return False
        if entry.expired(self._clock()):
            del self._entries[query_id]
            self._emit("lqt_expire", query_id, entry)
            return False
        return True

    def insert(self, entry: LingeringEntry, query_id: int) -> None:
        self._entries[query_id] = entry
        self._emit("lqt_linger", query_id, entry)

    def get(self, query_id: int) -> Optional[LingeringEntry]:
        if not self.exists(query_id):
            return None
        return self._entries.get(query_id)

    def remove(self, query_id: int) -> None:
        self._entries.pop(query_id, None)

    def live_entries(self) -> Iterator[LingeringEntry]:
        self.purge()
        return iter(list(self._entries.values()))

    def purge(self) -> None:
        now = self._clock()
        dead = [qid for qid, entry in self._entries.items() if entry.expired(now)]
        for qid in dead:
            self._emit("lqt_expire", qid, self._entries[qid])
            del self._entries[qid]

    def observe_state(self) -> Dict[str, float]:
        now = self._clock()
        return {
            str(qid): entry.expires_at
            for qid, entry in self._entries.items()
            if not entry.expired(now)
        }


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _view(entry: Optional[LingeringEntry]):
    return None if entry is None else (entry.upstream, entry.expires_at, entry.is_origin)


def _events(sink: ListSink) -> list:
    return [(e.time, e.kind, e.node, e.fields) for e in sink.events]


query_ids = st.integers(0, 4)
# Integer times and lifetimes so expiries land exactly on clock ticks; a
# lifetime of 0 inserts an entry that has already lapsed.
operations = st.one_of(
    st.tuples(st.just("insert"), query_ids, st.integers(0, 6), st.booleans()),
    st.tuples(st.just("exists"), query_ids),
    st.tuples(st.just("get"), query_ids),
    st.tuples(st.just("remove"), query_ids),
    st.tuples(st.just("live_entries")),
    st.tuples(st.just("purge")),
    st.tuples(st.just("len")),
    st.tuples(st.just("advance"), st.integers(0, 3)),
)


# Pins a purge at exactly the bound, a re-insert over a lapsed entry that
# was never purged, and a removal of the entry that set the bound.
@example(
    [
        ("insert", 0, 2, False),
        ("insert", 1, 4, True),
        ("advance", 2),
        ("insert", 0, 3, False),
        ("purge",),
        ("remove", 1),
        ("advance", 3),
        ("live_entries",),
        ("len",),
    ]
)
@given(st.lists(operations, min_size=10, max_size=80))
@settings(max_examples=200)
def test_bounded_purge_matches_scan_every_purge(ops):
    clock = Clock()
    bus, reference_bus = TraceBus(clock), TraceBus(clock)
    sink, reference_sink = bus.subscribe(ListSink()), reference_bus.subscribe(ListSink())
    table = LingeringQueryTable(clock, trace=bus, node=3)
    reference = ReferenceLqt(clock, reference_bus, node=3)
    for op in ops:
        name = op[0]
        if name == "insert":
            _, query_id, lifetime, origin = op
            for target in (table, reference):
                target.insert(
                    LingeringEntry(
                        query="q",
                        upstream=query_id + 10,
                        expires_at=clock.now + lifetime,
                        is_origin=origin,
                    ),
                    query_id,
                )
        elif name == "exists":
            assert table.exists(op[1]) == reference.exists(op[1])
        elif name == "get":
            assert _view(table.get(op[1])) == _view(reference.get(op[1]))
        elif name == "remove":
            table.remove(op[1])
            reference.remove(op[1])
        elif name == "live_entries":
            assert [_view(e) for e in table.live_entries()] == [
                _view(e) for e in reference.live_entries()
            ]
        elif name == "purge":
            table.purge()
            reference.purge()
        elif name == "len":
            assert len(table) == len(reference)
        else:
            clock.now += op[1]
        assert _events(sink) == _events(reference_sink)
        # Stored ids, lapsed ones included: a skipped purge that should
        # have dropped one would show here before any event does.
        assert list(table._entries) == list(reference._entries)
        assert list(table.observe_state().items()) == list(
            reference.observe_state().items()
        )
