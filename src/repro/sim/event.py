"""Event objects and the pending-event queue of the discrete-event kernel.

The queue orders events by ``(time, priority, sequence)``.  The
monotonically increasing sequence number guarantees a stable FIFO order for
events scheduled at the same instant with the same priority, which keeps
simulations fully deterministic for a given seed.  The heap stores
``(time, priority, sequence, event)`` tuples, so every sift compares in C;
``sequence`` is unique, so a comparison never reaches the event itself.

Cancellation is *lazy*: a cancelled event stays in the queue's storage
until popped, but the queue's length accounting tracks only live
events.  Every event holds a back-reference to its queue, so
:meth:`Event.cancel` keeps the accounting exact no matter which of the two
cancellation entry points (``event.cancel()`` or ``queue.cancel(event)``) a
caller uses, and cancelling an event that already fired (or was cleared) is
a no-op — it must not deflate the live count.  ``Simulator.peak_queue_depth``
reads ``len(queue)``, so this accounting is what keeps the reported peak
free of cancelled-but-unpopped ghosts.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable, Iterator, Optional

from repro.errors import SimulationError

#: Default priority for events.  Lower values run earlier at equal times.
DEFAULT_PRIORITY = 0


class Event:
    """A single scheduled callback.

    The queue orders events by ``(time, priority, sequence)``, which it
    keeps beside each event in the heap entry; events themselves define
    no ordering.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., Any],
        args: tuple = (),
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        #: The queue currently holding this event (None once
        #: popped/cleared).
        self._queue: Optional["EventQueue"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time}, priority={self.priority}, "
            f"sequence={self.sequence}, cancelled={self.cancelled})"
        )

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped.

        Idempotent, and exact about accounting: the owning queue's live
        count drops only if the event is still pending there.  Cancelling
        after the event fired (or after ``clear()``) changes nothing.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._active -= 1

    @property
    def active(self) -> bool:
        """Whether the event will still fire."""
        return not self.cancelled

    def fire(self) -> None:
        """Invoke the callback (the simulator calls this; tests may too)."""
        self.callback(*self.args)


class EventQueue:
    """The kernel's pending-event queue: a binary heap of :class:`Event`.

    O(log n) push/pop via :mod:`heapq` over ``(time, priority, sequence,
    event)`` entries.  Beyond the method signatures:

    * **Lazy cancellation, exact accounting.** Cancelled events stay in
      the heap until popped, but ``len()`` counts only live events.
      :meth:`Event.cancel` decrements ``_active`` directly (a plain
      attribute, not a method, to keep the timer-heavy cancel path cheap).
    * **Back-reference severing.** :meth:`drain` (and so :meth:`pop`),
      :meth:`peek_time` and :meth:`clear` set ``event._queue = None`` for
      every event they remove, so a later ``event.cancel()`` on a stale
      handle is a no-op and cannot deflate the live count of a refilled
      queue.
    * ``pop()`` on a queue with no live events raises
      :class:`~repro.errors.SimulationError`; ``peek_time()`` returns
      ``None`` instead.

    :meth:`drain` is the one pop; :meth:`pop` and the simulator's run loop
    both take events from it.  :meth:`Simulator.schedule
    <repro.sim.simulator.Simulator.schedule>` builds the same heap entry as
    :meth:`push` inline, the hottest call in the kernel.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._active = 0

    def __len__(self) -> int:
        return self._active

    def __bool__(self) -> bool:
        return self._active > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Insert a new event and return it (so callers may cancel it)."""
        sequence = next(self._counter)
        event = Event(time, priority, sequence, callback, args)
        event._queue = self
        heappush(self._heap, (time, priority, sequence, event))
        self._active += 1
        return event

    def drain(self, until: float = math.inf) -> Iterator[Event]:
        """Remove and yield active events in order while they are due.

        Stops at the first active event after ``until``, which stays
        queued, or when none is left; events pushed between two yields
        take their place in the order.  Cancelled entries met on the way
        are discarded.  This is the queue's one pop: :meth:`pop` takes
        the first event of it, and :meth:`Simulator.run
        <repro.sim.simulator.Simulator.run>` fires every event it yields,
        one ``heappop`` and one generator resume per event.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heappop(heap)
                event._queue = None
                continue
            if entry[0] > until:
                return
            heappop(heap)
            event._queue = None
            self._active -= 1
            yield event

    def pop(self) -> Event:
        """Remove and return the earliest active event.

        Raises:
            SimulationError: if the queue holds no active events.
        """
        for event in self.drain():
            return event
        raise SimulationError("pop() from an empty event queue")

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (idempotent)."""
        event.cancel()

    def peek_time(self) -> Optional[float]:
        """Return the time of the next active event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if not event.cancelled:
                return entry[0]
            heappop(heap)
            event._queue = None
        return None

    def clear(self) -> None:
        """Discard all pending events.

        Severs each cleared event's back-reference, so cancelling a stale
        handle afterwards cannot deflate the live count of a refilled
        queue.
        """
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._active = 0

