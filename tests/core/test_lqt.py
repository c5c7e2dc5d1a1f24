"""Unit tests for the lingering query table and RR set."""

from repro.core.lqt import LingeringEntry, LingeringQueryTable, RecentResponses


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def entry(expires_at=100.0, upstream=1):
    return LingeringEntry(query="q", upstream=upstream, expires_at=expires_at)


def test_insert_and_exists():
    clock = FakeClock()
    lqt = LingeringQueryTable(clock)
    lqt.insert(entry(), query_id=1)
    assert lqt.exists(1)
    assert not lqt.exists(2)


def test_expiration_removes_entry():
    """A lingering query stays until its expiration, then is removed."""
    clock = FakeClock()
    lqt = LingeringQueryTable(clock)
    lqt.insert(entry(expires_at=10.0), query_id=1)
    clock.now = 9.9
    assert lqt.exists(1)
    clock.now = 10.0
    assert not lqt.exists(1)
    assert lqt.get(1) is None


def test_expired_id_can_be_reinserted():
    clock = FakeClock()
    lqt = LingeringQueryTable(clock)
    lqt.insert(entry(expires_at=10.0), query_id=1)
    clock.now = 20.0
    assert not lqt.exists(1)
    lqt.insert(entry(expires_at=30.0), query_id=1)
    assert lqt.exists(1)


def test_live_entries_excludes_expired():
    clock = FakeClock()
    lqt = LingeringQueryTable(clock)
    lqt.insert(entry(expires_at=10.0, upstream=1), query_id=1)
    lqt.insert(entry(expires_at=50.0, upstream=2), query_id=2)
    clock.now = 20.0
    live = list(lqt.live_entries())
    assert len(live) == 1
    assert live[0].upstream == 2


def test_len_counts_live_only():
    clock = FakeClock()
    lqt = LingeringQueryTable(clock)
    lqt.insert(entry(expires_at=10.0), query_id=1)
    lqt.insert(entry(expires_at=50.0), query_id=2)
    assert len(lqt) == 2
    clock.now = 30.0
    assert len(lqt) == 1


def test_remove():
    clock = FakeClock()
    lqt = LingeringQueryTable(clock)
    lqt.insert(entry(), query_id=1)
    lqt.remove(1)
    assert not lqt.exists(1)
    lqt.remove(1)  # idempotent


def test_entry_state_is_mutable():
    clock = FakeClock()
    lqt = LingeringQueryTable(clock)
    lqt.insert(entry(), query_id=1)
    stored = lqt.get(1)
    stored.forwarded_keys.add(7)
    stored.best_hop_sent[3] = 2
    again = lqt.get(1)
    assert 7 in again.forwarded_keys
    assert again.best_hop_sent[3] == 2


# ----------------------------------------------------------------------
# RecentResponses (RR Lookup)
# ----------------------------------------------------------------------
def test_rr_first_sighting_not_seen():
    rr = RecentResponses()
    assert rr.seen_before(1) is False
    assert rr.seen_before(1) is True


def test_rr_contains():
    rr = RecentResponses()
    rr.seen_before(5)
    assert 5 in rr
    assert 6 not in rr


def test_rr_history_bounded():
    rr = RecentResponses(history_limit=10)
    for i in range(100):
        rr.seen_before(i)
    assert len(rr) <= 11
    # The most recent ids are retained.
    assert 99 in rr
