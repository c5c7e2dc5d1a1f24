"""Unit tests for the leaky bucket pacer (§V-2)."""

import pytest

from repro.errors import ConfigurationError
from repro.net.leaky_bucket import LeakyBucket, LeakyBucketConfig
from repro.net.message import Frame


def frame(size, tag="x"):
    # payload_size such that total frame size == size
    from repro.net.message import FRAME_HEADER_BYTES

    return Frame(sender=1, payload=tag, payload_size=size - FRAME_HEADER_BYTES)


def make_bucket(sim, capacity=10_000, rate=8_000.0, sink=None, on_drop=None):
    released = []
    if sink is None:
        sink = lambda f: released.append((sim.now, f)) or True
    bucket = LeakyBucket(
        sim,
        sink,
        LeakyBucketConfig(capacity_bytes=capacity, leak_rate_bps=rate),
        on_drop=on_drop,
    )
    return bucket, released


def test_config_validation():
    with pytest.raises(ConfigurationError):
        LeakyBucketConfig(capacity_bytes=0)
    with pytest.raises(ConfigurationError):
        LeakyBucketConfig(leak_rate_bps=0)


def test_first_frames_burst_through_full_bucket(sim):
    """A full bucket lets an initial burst up to its capacity through."""
    bucket, released = make_bucket(sim, capacity=5000, rate=8000)
    for _ in range(4):
        bucket.offer(frame(1000))
    sim.run(until=0.001)
    assert len(released) == 4  # 4 KB burst < 5 KB capacity


def test_sustained_rate_limited_to_leak_rate(sim):
    bucket, released = make_bucket(sim, capacity=2000, rate=8000)  # 1 KB/s
    for _ in range(10):
        bucket.offer(frame(1000))
    sim.run()
    # 2 KB burst, then one frame per second.
    span = released[-1][0] - released[0][0]
    assert span == pytest.approx(8.0, abs=0.5)


def test_offer_never_drops(sim):
    bucket, _ = make_bucket(sim, capacity=1000)
    for _ in range(100):
        assert bucket.offer(frame(1000)) is True
    assert bucket.queue_length >= 90


def test_queued_bytes_accounting(sim):
    bucket, _ = make_bucket(sim, capacity=1000, rate=80.0)
    bucket.offer(frame(1000))
    bucket.offer(frame(500))
    sim.run(until=0.0)
    # First released (capacity allows), second queued.
    assert bucket.queued_bytes == 500


def test_oversized_frame_released_at_full_bucket(sim):
    """Frames larger than the capacity must not deadlock."""
    bucket, released = make_bucket(sim, capacity=1000, rate=8000)
    bucket.offer(frame(5000))
    sim.run()
    assert len(released) == 1


def test_tokens_refill_up_to_capacity(sim):
    bucket, _ = make_bucket(sim, capacity=4000, rate=8000)
    bucket.offer(frame(4000))
    sim.run(until=0.0)
    assert bucket.tokens() == pytest.approx(0.0, abs=1.0)
    sim.run(until=10.0)
    assert bucket.tokens() == pytest.approx(4000.0)


def test_on_drop_called_when_sink_reports_failure(sim):
    dropped = []
    bucket = LeakyBucket(
        sim,
        lambda f: False,
        LeakyBucketConfig(capacity_bytes=10_000, leak_rate_bps=8000),
        on_drop=dropped.append,
    )
    bucket.offer(frame(1000))
    sim.run()
    assert len(dropped) == 1
    assert bucket.dropped_frames == 1


def test_remove_withdraws_queued_frame(sim):
    bucket, released = make_bucket(sim, capacity=1000, rate=800.0)
    first = frame(1000, "first")
    victim = frame(1000, "victim")
    bucket.offer(first)
    bucket.offer(victim)
    assert bucket.remove(victim) is True
    assert bucket.remove(victim) is False
    sim.run()
    assert all(f.payload != "victim" for _, f in released)


def test_remove_is_by_identity_not_equality(sim):
    bucket, released = make_bucket(sim, capacity=1000, rate=800.0)
    bucket.offer(frame(1000, "airing"))
    twin = Frame(sender=1, payload="twin", payload_size=500, frame_id=7)
    victim = Frame(sender=1, payload="twin", payload_size=500, frame_id=7)
    assert twin == victim and twin is not victim
    bucket.offer(twin)
    bucket.offer(victim)
    assert bucket.remove(victim) is True
    assert bucket.queued_frames() == [twin]
    assert bucket.queued_frames()[0] is twin
    assert bucket.remove(victim) is False
    sim.run()
    assert [f.payload for _, f in released] == ["airing", "twin"]
    assert released[1][1] is twin


def test_flush_clears_queue(sim):
    bucket, _ = make_bucket(sim, capacity=1000, rate=80.0)
    for _ in range(5):
        bucket.offer(frame(1000))
    bucket.flush()
    assert bucket.queued_bytes == 0
    assert bucket.queue_length == 0


def test_fifo_order_preserved(sim):
    bucket, released = make_bucket(sim, capacity=1000, rate=80_000)
    for tag in ("a", "b", "c"):
        bucket.offer(frame(1000, tag))
    sim.run()
    assert [f.payload for _, f in released] == ["a", "b", "c"]
