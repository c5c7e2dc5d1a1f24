"""Unit tests for the CDI table (§IV-A distance-vector rules)."""

from repro.core.cdi import CdiTable
from repro.data.descriptor import make_descriptor
from tests.helpers import cdi_learn


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make():
    clock = FakeClock()
    return CdiTable(clock), clock


ITEM = make_descriptor("media", "video", name="v")


def test_first_entry_added():
    table, _ = make()
    assert cdi_learn(table, ITEM, 0, 2, neighbor=5, ttl=30.0) is True
    assert table.best_hop(ITEM, 0) == 2
    assert [e.neighbor for e in table.best_entries(ITEM, 0)] == [5]


def test_smaller_distance_replaces():
    table, _ = make()
    cdi_learn(table, ITEM, 0, 3, neighbor=5, ttl=30.0)
    assert cdi_learn(table, ITEM, 0, 1, neighbor=6, ttl=30.0) is True
    entries = table.best_entries(ITEM, 0)
    assert [(e.neighbor, e.hop_count) for e in entries] == [(6, 1)]


def test_equal_distance_adds_neighbor():
    """Same least hop count via multiple neighbors → one entry each."""
    table, _ = make()
    cdi_learn(table, ITEM, 0, 2, neighbor=5, ttl=30.0)
    assert cdi_learn(table, ITEM, 0, 2, neighbor=6, ttl=30.0) is True
    assert {e.neighbor for e in table.best_entries(ITEM, 0)} == {5, 6}


def test_larger_distance_ignored():
    table, _ = make()
    cdi_learn(table, ITEM, 0, 1, neighbor=5, ttl=30.0)
    assert cdi_learn(table, ITEM, 0, 4, neighbor=6, ttl=30.0) is False
    assert {e.neighbor for e in table.best_entries(ITEM, 0)} == {5}


def test_duplicate_update_refreshes_expiry_not_new():
    table, clock = make()
    cdi_learn(table, ITEM, 0, 2, neighbor=5, ttl=10.0)
    clock.now = 8.0
    assert cdi_learn(table, ITEM, 0, 2, neighbor=5, ttl=10.0) is False
    clock.now = 15.0  # original would have expired at 10
    assert table.best_hop(ITEM, 0) == 2


def test_entries_expire():
    """Obsolete CDI entries do not stay forever (§IV-A)."""
    table, clock = make()
    cdi_learn(table, ITEM, 0, 2, neighbor=5, ttl=10.0)
    clock.now = 10.0
    assert table.best_hop(ITEM, 0) is None
    assert table.best_entries(ITEM, 0) == []


def test_expired_best_uncovers_nothing_even_if_worse_existed():
    table, clock = make()
    cdi_learn(table, ITEM, 0, 1, neighbor=5, ttl=10.0)
    # A worse entry was rejected, not stored; after expiry there is nothing.
    cdi_learn(table, ITEM, 0, 3, neighbor=6, ttl=100.0)
    clock.now = 50.0
    assert table.best_hop(ITEM, 0) is None


def test_known_chunks():
    table, clock = make()
    cdi_learn(table, ITEM, 0, 2, neighbor=5, ttl=10.0)
    cdi_learn(table, ITEM, 3, 1, neighbor=5, ttl=100.0)
    assert table.known_chunks(ITEM) == {0, 3}
    clock.now = 50.0
    assert table.known_chunks(ITEM) == {3}


def test_items_are_separate():
    table, _ = make()
    other = make_descriptor("media", "video", name="w")
    cdi_learn(table, ITEM, 0, 2, neighbor=5, ttl=30.0)
    assert table.best_hop(other, 0) is None


def test_chunk_descriptor_normalised_to_item():
    table, _ = make()
    cdi_learn(table, ITEM.chunk_descriptor(0), 0, 2, neighbor=5, ttl=30.0)
    assert table.best_hop(ITEM, 0) == 2


def test_remove_neighbor():
    table, _ = make()
    cdi_learn(table, ITEM, 0, 2, neighbor=5, ttl=30.0)
    cdi_learn(table, ITEM, 0, 2, neighbor=6, ttl=30.0)
    table.remove_neighbor(5)
    assert {e.neighbor for e in table.best_entries(ITEM, 0)} == {6}
    table.remove_neighbor(6)
    assert table.best_hop(ITEM, 0) is None


def test_clear():
    table, _ = make()
    cdi_learn(table, ITEM, 0, 2, neighbor=5, ttl=30.0)
    table.clear()
    assert table.known_chunks(ITEM) == set()
