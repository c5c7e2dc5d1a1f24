"""Property-based tests for data-store invariants."""

import gc
import math
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.descriptor import DataDescriptor
from repro.data.item import DataItem
from repro.data.predicate import QuerySpec, lt
from repro.data.store import DataStore


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


descriptors = st.builds(
    lambda i: DataDescriptor({"namespace": "t", "data_type": "x", "time": float(i)}),
    st.integers(0, 200),
)


@given(st.lists(descriptors, max_size=50))
@settings(max_examples=100)
def test_metadata_count_equals_distinct_inserts(batch):
    store = DataStore(Clock())
    store.insert_metadata(batch)
    assert store.metadata_count() == len(set(batch))
    assert set(store.all_metadata()) == set(batch)


@given(st.lists(descriptors, max_size=50))
@settings(max_examples=100)
def test_insert_returns_new_exactly_once_per_descriptor(batch):
    store = DataStore(Clock())
    new = store.insert_metadata(batch)
    assert new == list(dict.fromkeys(batch))


@given(
    st.lists(descriptors, min_size=1, max_size=30),
    st.floats(min_value=0.1, max_value=100.0),
)
@settings(max_examples=100)
def test_everything_expires_without_payload(batch, ttl):
    clock = Clock()
    store = DataStore(clock, metadata_ttl=ttl)
    store.insert_metadata(batch, has_payload=False)
    clock.now = ttl + 0.001
    assert store.metadata_count() == 0


@given(st.lists(descriptors, min_size=1, max_size=30))
@settings(max_examples=100)
def test_match_all_spec_returns_everything_live(batch):
    store = DataStore(Clock())
    store.insert_metadata(batch)
    assert set(store.match_metadata(QuerySpec())) == set(batch)


@given(st.integers(1, 500_000), st.integers(64, 1_000_000))
@settings(max_examples=100, deadline=None)
def test_chunk_sizes_always_sum_to_item_size(size, chunk_size):
    item = DataItem(
        DataDescriptor({"namespace": "m", "data_type": "v", "name": "x"}),
        size=size,
        chunk_size=chunk_size,
    )
    chunks = item.chunks()
    assert sum(c.size for c in chunks) == size
    assert len(chunks) == item.total_chunks
    assert [c.chunk_id for c in chunks] == list(range(item.total_chunks))


@given(st.lists(st.integers(0, 30), min_size=1, max_size=31, unique=True))
@settings(max_examples=100)
def test_chunk_ids_of_sorted_regardless_of_insert_order(chunk_ids):
    store = DataStore(Clock())
    item = DataItem(
        DataDescriptor({"namespace": "m", "data_type": "v", "name": "x"}),
        size=32 * 1000,
        chunk_size=1000,
    )
    for chunk_id in chunk_ids:
        store.insert_chunk(item.chunk(chunk_id))
    assert store.chunk_ids_of(item.descriptor) == sorted(chunk_ids)


# ----------------------------------------------------------------------
# Oracle: the store with one record object per entry, a full scan on
# every read and one-descriptor inserts.  The expiry-valued table, the
# expiry-bounded purge and the batch insert must reproduce its return
# values and its table order exactly (table order decides how responses
# are packed).
# ----------------------------------------------------------------------
@dataclass
class MetadataRecord:
    """Book-keeping for one cached metadata entry."""

    descriptor: DataDescriptor
    has_payload: bool
    expires_at: Optional[float]

    def expired(self, now: float) -> bool:
        return (
            not self.has_payload
            and self.expires_at is not None
            and now >= self.expires_at
        )


class ScanEveryReadStore:
    def __init__(self, clock, metadata_ttl=None):
        self._clock = clock
        self.metadata_ttl = metadata_ttl
        self._metadata = {}

    def insert_one(self, descriptor, has_payload=False):
        now = self._clock()
        record = self._metadata.get(descriptor)
        is_new = record is None or record.expired(now)
        expires_at = None
        if not has_payload and self.metadata_ttl is not None:
            expires_at = now + self.metadata_ttl
        if record is not None and not record.expired(now):
            record.has_payload = record.has_payload or has_payload
            if record.has_payload:
                record.expires_at = None
            else:
                record.expires_at = expires_at
        else:
            self._metadata[descriptor] = MetadataRecord(
                descriptor, has_payload, expires_at
            )
        return is_new

    def insert_metadata(self, descriptors, has_payload=False):
        return [d for d in descriptors if self.insert_one(d, has_payload)]

    def has_metadata(self, descriptor):
        record = self._metadata.get(descriptor)
        if record is None:
            return False
        if record.expired(self._clock()):
            del self._metadata[descriptor]
            return False
        return True

    def match_metadata(self, spec):
        self._purge_expired()
        return [d for d in self._metadata if spec.matches(d)]

    def all_metadata(self):
        self._purge_expired()
        return list(self._metadata)

    def metadata_count(self):
        self._purge_expired()
        return len(self._metadata)

    def remove_metadata(self, descriptor):
        self._metadata.pop(descriptor, None)

    def _purge_expired(self):
        now = self._clock()
        expired = [d for d, r in self._metadata.items() if r.expired(now)]
        for descriptor in expired:
            del self._metadata[descriptor]


small_descriptors = st.builds(
    lambda i: DataDescriptor({"namespace": "t", "data_type": "x", "time": float(i)}),
    st.integers(0, 7),
)
specs = st.sampled_from([QuerySpec(), QuerySpec([lt("time", 4.0)])])
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"), st.lists(small_descriptors, max_size=4), st.booleans()
        ),
        st.tuples(st.just("has"), small_descriptors),
        st.tuples(st.just("match"), specs),
        st.tuples(st.just("all")),
        st.tuples(st.just("count")),
        st.tuples(st.just("remove"), small_descriptors),
        # Integer steps against an integer TTL land exactly on expiries.
        st.tuples(st.just("step"), st.integers(0, 6)),
        st.tuples(st.just("to_expiry"), st.integers(0, 7)),
    ),
    max_size=60,
)


def _earliest_expiry(store):
    return min(store._metadata.values(), default=math.inf)


@given(operations, st.sampled_from([None, 0.0, 3.0, 5.0]))
@settings(max_examples=300, deadline=None)
def test_store_matches_scan_every_read_oracle(ops, ttl):
    clock = Clock()
    store = DataStore(clock, metadata_ttl=ttl)
    oracle = ScanEveryReadStore(clock, metadata_ttl=ttl)
    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, batch, has_payload = op
            assert store.insert_metadata(batch, has_payload) == (
                oracle.insert_metadata(batch, has_payload)
            )
        elif kind == "has":
            assert store.has_metadata(op[1]) == oracle.has_metadata(op[1])
        elif kind == "remove":
            store.remove_metadata(op[1])
            oracle.remove_metadata(op[1])
        elif kind == "step":
            clock.now += op[1]
        elif kind == "to_expiry":
            expiries = sorted(
                r.expires_at
                for r in oracle._metadata.values()
                if r.expires_at is not None and r.expires_at >= clock.now
            )
            if expiries:
                clock.now = expiries[op[1] % len(expiries)]
        else:
            if kind == "match":
                assert store.match_metadata(op[1]) == oracle.match_metadata(op[1])
            elif kind == "all":
                assert store.all_metadata() == oracle.all_metadata()
            else:
                assert store.metadata_count() == oracle.metadata_count()
            # After a read nothing can expire before the bound, and the
            # bound is tight enough that the next scan waits for a record
            # that could actually expire.
            assert clock.now < store._next_expiry <= _earliest_expiry(store)
        assert list(store._metadata) == list(oracle._metadata)
    assert store.all_metadata() == oracle.all_metadata()


@given(
    st.lists(
        st.tuples(st.lists(descriptors, max_size=20), st.booleans()), max_size=8
    ),
    st.sampled_from([None, 3.0]),
)
@settings(max_examples=100)
def test_no_metadata_value_is_gc_tracked(batches, ttl):
    """The table holds no per-entry object for the cyclic collector."""
    clock = Clock()
    store = DataStore(clock, metadata_ttl=ttl)
    for batch, has_payload in batches:
        store.insert_metadata(batch, has_payload)
        clock.now += 1.0
    assert not any(gc.is_tracked(value) for value in store._metadata.values())
