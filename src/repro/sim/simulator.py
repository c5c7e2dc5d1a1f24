"""The discrete-event simulator driving every PDS experiment.

The :class:`Simulator` owns the virtual clock and the event queue.  Protocol
code never sleeps or polls; it schedules callbacks at future virtual times
with :meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.at`
(absolute time).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.config import active
from repro.obs.fingerprint import EventFingerprinter
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBus
from repro.sim.event import DEFAULT_PRIORITY, Event, EventQueue


class Simulator:
    """A deterministic discrete-event simulator.

    Attributes:
        now: Current virtual time in seconds.
        trace: This simulation's trace bus (disabled until a sink
            subscribes; the active config's trace sink is attached
            automatically).
        metrics: This simulation's metrics registry (counters, gauges,
            histograms recorded by the stack; watched by the active
            profiler under ``ObsConfig(metrics=True)``).
        events_processed: Total events fired over the simulator's life.
        peak_queue_depth: Largest event-queue length observed while running.
        recorder: The attached flight recorder
            (:class:`repro.obs.recorder.FlightRecorder`), or ``None``.
            Left ``None`` unless a recording is configured — the event
            loop itself never consults it, so a disabled recorder adds
            zero per-event cost.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.trace = TraceBus(clock=lambda: self.now)
        traced = active("trace")
        if traced is not None:
            self.trace.subscribe(traced.trace_sink)
        self.metrics = MetricsRegistry()
        profiled = active("metrics")
        if profiled is not None:
            profiled.profiler.watch(self.metrics)
        self.events_processed: int = 0
        self.peak_queue_depth: int = 0
        self.recorder: Optional[Any] = None
        self._fingerprint: Optional[EventFingerprinter] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, args, priority)

    def at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        return self._queue.push(time, callback, args, priority)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (safe to call more than once)."""
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events in time order.

        Args:
            until: Stop once the clock would pass this time.  The clock is
                advanced to ``until`` when the queue drains earlier, so
                repeated ``run(until=...)`` calls observe monotonic time.
            max_events: Safety valve; raise when a due event remains after
                this many have fired.

        Returns:
            The number of events processed.

        Raises:
            SimulationError: on re-entrant calls or when ``max_events`` is hit.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        processed = 0
        profiled = active("metrics")
        kernel = profiled.profiler if profiled is not None else None
        fp_obs = active("fingerprint")
        fingerprint: Optional[EventFingerprinter] = None
        if fp_obs is not None:
            fingerprint = self._fingerprint
            if fingerprint is None or fingerprint.obs is not fp_obs:
                fingerprint = self._fingerprint = EventFingerprinter(
                    self, fp_obs
                )
        wall_start = perf_counter() if kernel is not None else 0.0
        queue = self._queue
        peak_depth = len(queue)
        try:
            if fingerprint is None:
                while queue and not self._stopped:
                    next_time = queue.peek_time()
                    if next_time is None:
                        break
                    if until is not None and next_time > until:
                        break
                    if max_events is not None and processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            f"(processed={processed}, now={self.now}); "
                            f"runaway simulation?"
                        )
                    event = queue.pop()
                    if event.time < self.now:
                        raise SimulationError(
                            f"event queue yielded past event (t={event.time} < now={self.now})"
                        )
                    self.now = event.time
                    event.fire()
                    processed += 1
                    depth = len(queue)
                    if depth > peak_depth:
                        peak_depth = depth
            else:
                # Fingerprinted variant of the loop above.  Kept as a
                # separate branch (not per-event checks in the plain loop)
                # so fingerprint-off runs execute exactly the plain loop.
                # The fingerprinter never touches event order, the clock,
                # or RNG draws, so fingerprinted runs keep exact output
                # digests.  It folds the event in BEFORE fire(), so a
                # handler that raises still leaves the divergent event on
                # the stream.
                note = fingerprint.note
                while queue and not self._stopped:
                    next_time = queue.peek_time()
                    if next_time is None:
                        break
                    if until is not None and next_time > until:
                        break
                    if max_events is not None and processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            f"(processed={processed}, now={self.now}); "
                            f"runaway simulation?"
                        )
                    event = queue.pop()
                    if event.time < self.now:
                        raise SimulationError(
                            f"event queue yielded past event (t={event.time} < now={self.now})"
                        )
                    self.now = event.time
                    note(event)
                    event.fire()
                    processed += 1
                    depth = len(queue)
                    if depth > peak_depth:
                        peak_depth = depth
        finally:
            self._running = False
            if fingerprint is not None:
                fingerprint.flush_checkpoint()
            self.events_processed += processed
            if peak_depth > self.peak_queue_depth:
                self.peak_queue_depth = peak_depth
            if kernel is not None:
                kernel.record_run(
                    wall_s=perf_counter() - wall_start,
                    events=processed,
                    sim_time_s=self.now,
                    peak_queue_depth=peak_depth,
                )
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        if self.trace.enabled:
            self.trace.emit(
                "sim_run_end",
                processed=processed,
                pending=len(self._queue),
                peak_queue_depth=peak_depth,
            )
        return processed

    def stop(self) -> None:
        """Stop the current :meth:`run` after the active event.

        Only a run in progress is stopped: :meth:`run` clears the flag on
        entry, so a ``stop()`` issued between runs has no effect.
        """
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of active events still scheduled."""
        return len(self._queue)

    def reset(self) -> None:
        """Rewind the simulator for reuse (tests, repeated campaigns).

        Cleared: the event queue, the virtual clock, the stop flag, the
        event/queue-depth counters, and every instrument in ``metrics``.
        The metrics are zeroed *in place* — components that cached
        instrument references (``NetworkStats``, the round controller's
        duration histogram, the radio queue gauge) keep recording into
        the same objects, now reading zero.

        NOT cleared: the trace bus (sink subscriptions and per-kind
        emission tallies persist) and any state owned by objects built on
        top of the simulator — devices, caches, and the per-kind
        ``Counter`` breakdowns kept by ``NetworkStats`` outside the
        registry.  Rebuild the scenario when you need a fully fresh run.
        """
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        self._queue.clear()
        self.now = 0.0
        self._stopped = False
        self.events_processed = 0
        self.peak_queue_depth = 0
        self.recorder = None
        self.metrics.reset()
