"""Lazy-cancellation accounting: cancelled-but-unpopped events must not
inflate ``len(queue)`` — and therefore ``Simulator.peak_queue_depth`` —
no matter which cancellation entry point is used."""

import pytest

from repro.sim.event import EventQueue
from repro.sim.simulator import Simulator


@pytest.fixture(params=[EventQueue], ids=["heap"])
def queue(request):
    return request.param()


@pytest.fixture(params=[Simulator], ids=["heap"])
def sim(request):
    return request.param()


def test_len_counts_only_active_events(queue):
    events = [queue.push(float(i), lambda: None) for i in range(5)]
    assert len(queue) == 5
    queue.cancel(events[0])
    assert len(queue) == 4


def test_direct_event_cancel_updates_queue_len(queue):
    """`event.cancel()` (not via the queue) must keep accounting exact —
    this is the path retransmission timers use."""
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    event.cancel()
    assert len(queue) == 1
    assert not queue.pop().cancelled


def test_cancel_is_idempotent(queue):
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    event.cancel()
    event.cancel()
    queue.cancel(event)
    assert len(queue) == 1


def test_cancel_after_fire_is_a_no_op(sim):
    fired = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert len(sim._queue) == 1
    fired.cancel()  # e.g. an ACK arriving after the retransmit fired
    assert len(sim._queue) == 1


def test_cancel_after_clear_is_a_no_op(queue):
    event = queue.push(1.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    event.cancel()
    assert len(queue) == 0


def test_peak_queue_depth_ignores_cancelled_retransmits(sim):
    """Scheduling N retransmit timers and cancelling them (ACKs arrived)
    must not report a peak of N ghosts."""
    retransmits = [sim.schedule(10.0 + i, lambda: None) for i in range(50)]
    sim.schedule(1.0, lambda: None)
    for event in retransmits:
        event.cancel()
    sim.run()
    assert sim.events_processed == 1
    assert sim.peak_queue_depth == 1


def test_peak_queue_depth_tracks_live_events(sim):
    def fanout():
        for i in range(10):
            sim.schedule(1.0 + i, lambda: None)

    sim.schedule(1.0, fanout)
    sim.run()
    assert sim.events_processed == 11
    assert sim.peak_queue_depth == 10
