"""The bounded id history shared by link-level and response dedup."""

from repro.core.lqt import RecentResponses
from repro.net.recent import RecentIds
from repro.net.reliability import ReliabilityReceiver


def test_past_the_limit_the_oldest_half_goes():
    ids = RecentIds(4)
    for key in range(5):
        assert ids.seen_before(key) is False
    # Five ids exceed four: the oldest two (half the limit) are forgotten.
    assert list(ids) == [2, 3, 4]
    assert ids.seen_before(0) is False
    assert ids.seen_before(4) is True


def test_both_dedup_layers_keep_their_limits():
    assert RecentResponses().limit == 8192
    assert ReliabilityReceiver(1, lambda frame: None).history_limit == 4096
