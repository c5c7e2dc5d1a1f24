"""Property-based tests for CDI table invariants (§IV-A)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdi import CdiTable
from repro.data.descriptor import make_descriptor
from tests.helpers import cdi_learn

ITEM = make_descriptor("media", "video", name="prop-item")


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


updates = st.lists(
    st.tuples(
        st.integers(0, 5),    # chunk id
        st.integers(0, 8),    # hop count
        st.integers(0, 9),    # neighbor
    ),
    max_size=60,
)


@given(updates)
@settings(max_examples=100)
def test_best_hop_is_min_of_applied_updates(sequence):
    """After any update sequence, best_hop equals the minimum hop seen."""
    table = CdiTable(Clock())
    best = {}
    for chunk_id, hop, neighbor in sequence:
        cdi_learn(table, ITEM, chunk_id, hop, neighbor, ttl=1000.0)
        best[chunk_id] = min(best.get(chunk_id, hop), hop)
    for chunk_id, expected in best.items():
        assert table.best_hop(ITEM, chunk_id) == expected


@given(updates)
@settings(max_examples=100)
def test_best_entries_all_share_the_best_hop(sequence):
    table = CdiTable(Clock())
    for chunk_id, hop, neighbor in sequence:
        cdi_learn(table, ITEM, chunk_id, hop, neighbor, ttl=1000.0)
    for chunk_id in {c for c, _, _ in sequence}:
        entries = table.best_entries(ITEM, chunk_id)
        assert entries
        hops = {e.hop_count for e in entries}
        assert len(hops) == 1
        neighbors = [e.neighbor for e in entries]
        assert len(neighbors) == len(set(neighbors))


@given(updates)
@settings(max_examples=100)
def test_known_chunks_matches_updates(sequence):
    table = CdiTable(Clock())
    for chunk_id, hop, neighbor in sequence:
        cdi_learn(table, ITEM, chunk_id, hop, neighbor, ttl=1000.0)
    assert table.known_chunks(ITEM) == {c for c, _, _ in sequence}


@given(updates, st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=100)
def test_everything_expires(sequence, ttl):
    clock = Clock()
    table = CdiTable(clock)
    for chunk_id, hop, neighbor in sequence:
        cdi_learn(table, ITEM, chunk_id, hop, neighbor, ttl=ttl)
    clock.now = ttl + 1.0
    assert table.known_chunks(ITEM) == set()
