"""Unit tests for the simulator kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_at_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)


def test_run_advances_clock_to_event_times(sim):
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(0.5, lambda: times.append(sim.now))
    processed = sim.run()
    assert processed == 2
    assert times == [0.5, 1.5]
    assert sim.now == 1.5


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run(until=2.0)
    assert fired == [1]
    # Clock advanced to the until bound even though the queue has more.
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == [1, 5]


def test_run_until_advances_clock_when_queue_drains(sim):
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_events_can_schedule_more_events(sim):
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_stop_halts_processing(sim):
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 1


def test_stop_between_runs_is_dropped(sim):
    """``stop()`` only stops a run in progress: ``run()`` clears the flag."""
    fired = []
    for i in range(3):
        sim.schedule(float(i), fired.append, i)
    sim.stop()
    assert sim.run() == 3
    assert fired == [0, 1, 2]
    assert sim.pending_events == 0


def test_max_events_guard(sim):
    def forever():
        sim.schedule(0.1, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError, match=r"processed=100, now="):
        sim.run(max_events=100)


@pytest.mark.parametrize("observed", [False, True])
def test_max_events_allows_exactly_n_events(sim, observed):
    """A queue holding exactly N events drains under ``max_events=N``."""
    from repro.obs.config import ObsConfig

    fired = []
    for i in range(3):
        sim.schedule(float(i), fired.append, i)
    if observed:
        with ObsConfig(fingerprint=True).activate():
            assert sim.run(max_events=3) == 3
    else:
        assert sim.run(max_events=3) == 3
    assert fired == [0, 1, 2]
    sim.schedule(1.0, fired.append, 3)
    sim.schedule(2.0, fired.append, 4)
    with pytest.raises(SimulationError, match=r"max_events=1 \(processed=1,"):
        sim.run(max_events=1)
    assert fired == [0, 1, 2, 3]


def test_cancel_scheduled_event(sim):
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_run_not_reentrant(sim):
    def nested():
        sim.run()

    sim.schedule(0.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_reset_rewinds_clock_and_queue(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.schedule(4.0, lambda: None)
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_same_time_priority_order(sim):
    order = []
    sim.schedule(1.0, lambda: order.append("normal"))
    sim.schedule(1.0, lambda: order.append("urgent"), priority=-1)
    sim.run()
    assert order == ["urgent", "normal"]


def test_pending_events_counts_active(sim):
    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    sim.cancel(event)
    assert sim.pending_events == 1


def test_reset_zeroes_metrics_in_place():
    """Regression: reset() used to rewind the clock and queue but leave
    every counter/histogram at its previous value, so back-to-back runs
    on one simulator accumulated stale metrics."""
    sim = Simulator()
    counter = sim.metrics.counter("test.events")
    sim.schedule(0.1, lambda: counter.inc(3))
    sim.run()
    assert counter.value == 3
    sim.reset()
    assert counter.value == 0
    # the cached reference keeps feeding the registry after reset
    sim.schedule(0.1, lambda: counter.inc(2))
    sim.run()
    assert sim.metrics.counter("test.events").value == 2
