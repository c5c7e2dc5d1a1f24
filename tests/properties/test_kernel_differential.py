"""The tuple-keyed event heap and its dispatch loop must fire exactly the
events, in exactly the order, that the object-heap kernel they replaced
fired.

``ReferenceEventQueue`` and ``ReferenceSimulator`` below are the previous
kernel, copied in: events ordered by their own ``__lt__`` inside the heap,
and a ``run`` loop that asks ``peek_time``/``pop`` and tests ``until`` and
``max_events`` for ``None`` on every event.  Both kernels run the same
random script — initial events on a coarse time grid (so equal times,
equal priorities and an ``until`` landing exactly on an event time are
common), callbacks that schedule, cancel (through either entry point) and
stop — and must report the same fired ``(time, priority, sequence,
callback)`` stream and the same ``now``, ``events_processed``,
``peak_queue_depth``, ``pending_events`` and ``max_events`` failures after
every ``run``.
"""

import heapq
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs.config import ObsConfig
from repro.sim.simulator import Simulator

# ----------------------------------------------------------------------
# Reference: the object-heap kernel.
# ----------------------------------------------------------------------


class ReferenceEvent:
    __slots__ = ("time", "priority", "sequence", "callback", "args", "cancelled", "_queue")

    def __init__(self, time, priority, sequence, callback, args=()):
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = None

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._active -= 1

    def fire(self):
        self.callback(*self.args)


class ReferenceEventQueue:
    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self._active = 0

    def __len__(self):
        return self._active

    def __bool__(self):
        return self._active > 0

    def push(self, time, callback, args=(), priority=0):
        event = ReferenceEvent(time, priority, next(self._counter), callback, args)
        event._queue = self
        heapq.heappush(self._heap, event)
        self._active += 1
        return event

    def pop(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                event._queue = None
                continue
            event._queue = None
            self._active -= 1
            return event
        raise SimulationError("pop() from an empty event queue")

    def cancel(self, event):
        event.cancel()

    def peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)._queue = None
        if not self._heap:
            return None
        return self._heap[0].time


class ReferenceSimulator:
    def __init__(self):
        self.now = 0.0
        self._queue = ReferenceEventQueue()
        self._running = False
        self._stopped = False
        self.events_processed = 0
        self.peak_queue_depth = 0

    def schedule(self, delay, callback, *args, priority=0):
        return self._queue.push(self.now + delay, callback, args, priority)

    def cancel(self, event):
        self._queue.cancel(event)

    def stop(self):
        self._stopped = True

    @property
    def pending_events(self):
        return len(self._queue)

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        processed = 0
        queue = self._queue
        peak_depth = len(queue)
        try:
            while queue and not self._stopped:
                next_time = queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if max_events is not None and processed >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                event = queue.pop()
                if event.time < self.now:
                    raise SimulationError("event queue yielded past event")
                self.now = event.time
                event.fire()
                processed += 1
                depth = len(queue)
                if depth > peak_depth:
                    peak_depth = depth
        finally:
            self._running = False
            self.events_processed += processed
            if peak_depth > self.peak_queue_depth:
                self.peak_queue_depth = peak_depth
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        return processed


# ----------------------------------------------------------------------
# One script, driven identically on either kernel.
# ----------------------------------------------------------------------

#: Times and delays on a coarse grid, so collisions are the common case.
GRID = 0.25
#: Total events a script may create (keeps callback fan-out finite).
MAX_LABELS = 160


class Script:
    """Callbacks whose actions depend only on ``(seed, label)``."""

    def __init__(self, sim, seed):
        self.sim = sim
        self.seed = seed
        self.handles = {}
        self.fired = []
        self.next_label = 0

    def add(self, delay, priority):
        label = self.next_label
        self.next_label += 1
        self.handles[label] = self.sim.schedule(
            delay, self.callback(label), label, priority=priority
        )

    def callback(self, label):
        # One handler per label; the fired stream names it by its label.
        def fire(arg):
            handle = self.handles[label]
            self.fired.append((self.sim.now, handle.priority, handle.sequence, arg))
            rnd = random.Random(self.seed * 1_000_003 + label)
            for _ in range(rnd.randrange(3)):
                if self.next_label < MAX_LABELS:
                    self.add(rnd.randrange(4) * GRID, rnd.randrange(-1, 2))
            if rnd.random() < 0.3 and self.handles:
                target = self.handles[rnd.randrange(self.next_label)]
                if rnd.random() < 0.5:
                    target.cancel()
                else:
                    self.sim.cancel(target)
            if rnd.random() < 0.04:
                self.sim.stop()

        return fire


def observe(sim, outcome):
    return (
        outcome,
        sim.now,
        sim.events_processed,
        sim.peak_queue_depth,
        sim.pending_events,
    )


def drive(sim, seed, initial, runs):
    script = Script(sim, seed)
    for slot, priority in initial:
        script.add(slot * GRID, priority)
    observed = []
    for until_slot, max_events in runs:
        until = None if until_slot is None else until_slot * GRID
        try:
            outcome = sim.run(until=until, max_events=max_events)
        except SimulationError:
            outcome = "max_events"
        observed.append(observe(sim, outcome))
    return script.fired, observed


initial_events = st.lists(
    st.tuples(st.integers(0, 12), st.integers(-1, 1)), min_size=1, max_size=40
)
runs = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 16)),
        st.one_of(st.none(), st.integers(0, 60)),
    ),
    min_size=1,
    max_size=6,
)


@given(st.integers(0, 2**32), initial_events, runs)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_object_heap_reference(seed, initial, plan):
    expected = drive(ReferenceSimulator(), seed, initial, plan)
    assert drive(Simulator(), seed, initial, plan) == expected


@given(st.integers(0, 2**32), initial_events, runs)
@settings(max_examples=50, deadline=None)
def test_fingerprinted_kernel_matches_object_heap_reference(seed, initial, plan):
    """The fingerprint branch of the loop fires the same stream, and its
    per-event records carry exactly the reference's ordering keys."""
    expected = drive(ReferenceSimulator(), seed, initial, plan)
    with ObsConfig(fingerprint=True, fingerprint_detail=(1, 10**6)).activate() as obs:
        assert drive(Simulator(), seed, initial, plan) == expected
    records = [r for stream in obs.streams for r in stream.records if r["fp"] == "event"]
    assert [(r["t"], r["prio"], r["seq"]) for r in records] == [
        fired[:3] for fired in expected[0]
    ]
