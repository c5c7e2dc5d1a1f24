"""Unit tests for the event-queue contract.

The fixture is parametrized (on :class:`EventQueue` only) so the test ids
name the queue under test.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.event import DEFAULT_PRIORITY, EventQueue


@pytest.fixture(params=[EventQueue], ids=["heap"])
def queue(request):
    return request.param()


def test_empty_queue_is_falsy(queue):
    assert len(queue) == 0
    assert not queue


def test_pop_returns_earliest_event(queue):
    order = []
    queue.push(2.0, order.append, ("b",))
    queue.push(1.0, order.append, ("a",))
    queue.push(3.0, order.append, ("c",))
    while queue:
        queue.pop().fire()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_fifo_order(queue):
    order = []
    for tag in ("first", "second", "third"):
        queue.push(1.0, order.append, (tag,))
    while queue:
        queue.pop().fire()
    assert order == ["first", "second", "third"]


def test_priority_breaks_time_ties(queue):
    order = []
    queue.push(1.0, order.append, ("low",), priority=5)
    queue.push(1.0, order.append, ("high",), priority=-5)
    assert queue.pop().args == ("high",)
    assert queue.pop().args == ("low",)
    assert not order  # fire() was never called


def test_pop_empty_raises(queue):
    with pytest.raises(SimulationError):
        queue.pop()


def test_cancel_removes_event_from_active_count(queue):
    event = queue.push(1.0, lambda: None)
    assert len(queue) == 1
    queue.cancel(event)
    assert len(queue) == 0
    with pytest.raises(SimulationError):
        queue.pop()


def test_cancel_is_idempotent(queue):
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_cancelled_event_skipped_by_pop(queue):
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(first)
    assert queue.pop().time == 2.0


def test_peek_time_skips_cancelled(queue):
    first = queue.push(1.0, lambda: None)
    queue.push(5.0, lambda: None)
    assert queue.peek_time() == 1.0
    queue.cancel(first)
    assert queue.peek_time() == 5.0


def test_peek_time_empty_returns_none(queue):
    assert queue.peek_time() is None


def test_clear_discards_everything(queue):
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    assert queue.peek_time() is None


def test_clear_then_refill_then_stale_cancel_keeps_len_exact(queue):
    """Regression: ``clear()`` must sever queue back-references so a
    cancel on a handle from *before* the clear cannot decrement the
    accounting of events scheduled *after* it."""
    stale = [queue.push(float(i), lambda: None) for i in range(4)]
    queue.clear()
    fresh = [queue.push(10.0 + i, lambda: None) for i in range(3)]
    for event in stale:
        event.cancel()  # e.g. a timer handle kept across a sim reset
    assert len(queue) == 3
    popped = [queue.pop() for _ in range(3)]
    assert [e.time for e in popped] == [10.0, 11.0, 12.0]
    assert all(e is f for e, f in zip(popped, fresh))
    assert len(queue) == 0


def test_pop_severs_back_reference(queue):
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.pop() is event
    event.cancel()  # post-pop cancel must not touch the queue
    assert len(queue) == 1


def test_event_fire_invokes_callback_with_args(queue):
    seen = []
    event = queue.push(0.0, lambda a, b: seen.append((a, b)), (1, 2))
    event.fire()
    assert seen == [(1, 2)]


def test_default_priority_constant():
    assert DEFAULT_PRIORITY == 0


def test_interleaved_push_pop_stays_sorted(queue):
    times = [7.0, 1.0, 3.0, 3.0, 0.5, 9.0, 2.5]
    for t in times[:4]:
        queue.push(t, lambda: None)
    head = [queue.pop().time, queue.pop().time]
    assert head == [1.0, 3.0]
    for t in times[4:]:  # 0.5 and 2.5 rewind below the last popped time
        queue.push(t, lambda: None)
    tail = []
    while queue:
        tail.append(queue.pop().time)
    assert tail == sorted(tail) == [0.5, 2.5, 3.0, 7.0, 9.0]


def test_drain_stops_at_the_first_event_after_until_and_leaves_it(queue):
    for t in (1.0, 2.0, 2.0, 3.0):
        queue.push(t, lambda: None)
    assert [e.time for e in queue.drain(2.0)] == [1.0, 2.0, 2.0]
    assert len(queue) == 1
    assert queue.peek_time() == 3.0


def test_drain_skips_cancelled_entries_and_counts_nothing_for_them(queue):
    first = queue.push(1.0, lambda: None)
    kept = queue.push(2.0, lambda: None)
    late = queue.push(3.0, lambda: None)
    first.cancel()
    late.cancel()
    assert list(queue.drain()) == [kept]
    assert len(queue) == 0
    assert not queue._heap  # the cancelled tail was discarded too


def test_drain_yields_events_pushed_while_it_runs(queue):
    queue.push(1.0, lambda: None)
    queue.push(5.0, lambda: None)
    times = []
    for event in queue.drain(4.0):
        times.append(event.time)
        if event.time == 1.0:
            queue.push(2.0, lambda: None)
            queue.push(4.5, lambda: None)
    assert times == [1.0, 2.0]
    assert [queue.pop().time, queue.pop().time] == [4.5, 5.0]
