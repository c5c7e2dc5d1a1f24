"""Unit tests for the data store (metadata + chunks + expiration)."""

from repro.data.descriptor import make_descriptor
from repro.data.item import make_item
from repro.data.predicate import QuerySpec, eq
from repro.data.store import DataStore


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_store(ttl=None):
    clock = FakeClock()
    return DataStore(clock, metadata_ttl=ttl), clock


def sample(i=0):
    return make_descriptor("env", "nox", time=float(i))


def test_insert_metadata_reports_novelty():
    store, _ = make_store()
    d = sample()
    assert store.insert_metadata([d]) == [d]
    assert store.insert_metadata([d]) == []


def test_has_metadata():
    store, _ = make_store()
    assert not store.has_metadata(sample())
    store.insert_metadata([sample()])
    assert store.has_metadata(sample())


def test_match_metadata_by_spec():
    store, _ = make_store()
    store.insert_metadata([make_descriptor("env", "nox")])
    store.insert_metadata([make_descriptor("env", "pm25")])
    matches = store.match_metadata(QuerySpec([eq("data_type", "nox")]))
    assert len(matches) == 1
    assert matches[0].get("data_type") == "nox"


def test_cached_entry_expires_without_payload():
    store, clock = make_store(ttl=10.0)
    store.insert_metadata([sample()], has_payload=False)
    clock.now = 9.9
    assert store.has_metadata(sample())
    clock.now = 10.0
    assert not store.has_metadata(sample())
    assert store.metadata_count() == 0


def test_entry_with_payload_never_expires():
    store, clock = make_store(ttl=10.0)
    store.insert_metadata([sample()], has_payload=True)
    clock.now = 1000.0
    assert store.has_metadata(sample())


def test_payload_arrival_upgrades_entry():
    """§II-C: the node removes the entry only if payload never arrived."""
    store, clock = make_store(ttl=10.0)
    store.insert_metadata([sample()], has_payload=False)
    clock.now = 5.0
    store.insert_metadata([sample()], has_payload=True)
    clock.now = 1000.0
    assert store.has_metadata(sample())


def test_reinsert_without_payload_refreshes_ttl():
    store, clock = make_store(ttl=10.0)
    store.insert_metadata([sample()])
    clock.now = 8.0
    store.insert_metadata([sample()])
    clock.now = 15.0
    assert store.has_metadata(sample())
    clock.now = 18.0
    assert not store.has_metadata(sample())


def test_expired_entry_reinserted_counts_as_new():
    store, clock = make_store(ttl=10.0)
    store.insert_metadata([sample()])
    clock.now = 20.0
    assert store.insert_metadata([sample()]) == [sample()]


def test_remove_metadata():
    store, _ = make_store()
    store.insert_metadata([sample()])
    store.remove_metadata(sample())
    assert not store.has_metadata(sample())


def test_insert_chunk_creates_metadata_for_item_and_chunk():
    store, _ = make_store()
    item = make_item("media", "video", "v", size=600_000)
    chunk = item.chunks()[0]
    assert store.insert_chunk(chunk) is True
    assert store.has_chunk(chunk.descriptor)
    assert store.has_metadata(item.descriptor)
    assert store.has_metadata(chunk.descriptor)


def test_insert_chunk_idempotent():
    store, _ = make_store()
    chunk = make_item("m", "v", "x", size=100).chunks()[0]
    assert store.insert_chunk(chunk) is True
    assert store.insert_chunk(chunk) is False


def test_chunks_of_sorted_by_chunk_id():
    store, _ = make_store()
    item = make_item("m", "v", "x", size=3 * 256 * 1024)
    for chunk in reversed(item.chunks()):
        store.insert_chunk(chunk)
    assert store.chunk_ids_of(item.descriptor) == [0, 1, 2]


def test_chunks_of_accepts_chunk_descriptor():
    store, _ = make_store()
    item = make_item("m", "v", "x", size=2 * 256 * 1024)
    for chunk in item.chunks():
        store.insert_chunk(chunk)
    via_chunk = store.chunks_of(item.descriptor.chunk_descriptor(0))
    assert len(via_chunk) == 2


def test_chunk_metadata_survives_because_payload_present():
    """'A metadata entry exists as long as ... any chunk ... exists.'"""
    store, clock = make_store(ttl=5.0)
    item = make_item("m", "v", "x", size=100)
    store.insert_chunk(item.chunks()[0])
    clock.now = 100.0
    assert store.has_metadata(item.descriptor)


def test_match_chunks_by_spec():
    store, _ = make_store()
    store.insert_chunk(make_item("m", "nox", "a", size=10).chunks()[0])
    store.insert_chunk(make_item("m", "pm", "b", size=10).chunks()[0])
    matches = store.match_chunks(QuerySpec([eq("data_type", "nox")]))
    assert len(matches) == 1


def test_stored_bytes():
    store, _ = make_store()
    store.insert_chunk(make_item("m", "v", "a", size=100).chunks()[0])
    store.insert_chunk(make_item("m", "v", "b", size=250).chunks()[0])
    assert store.stored_bytes() == 350


def test_all_metadata_and_count():
    store, _ = make_store()
    for i in range(5):
        store.insert_metadata([sample(i)])
    assert store.metadata_count() == 5
    assert len(store.all_metadata()) == 5
