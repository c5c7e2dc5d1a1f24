"""The discrete-event simulator driving every PDS experiment.

The :class:`Simulator` owns the virtual clock and the event queue.  Protocol
code never sleeps or polls; it schedules callbacks at future virtual times
with :meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.at`
(absolute time).
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.fingerprint import EventFingerprinter, configured_fingerprint
from repro.obs.kernelprof import active_kernel_profiler, dispatch
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBus, global_sinks
from repro.sim.event import DEFAULT_PRIORITY, Event, EventQueue


class Simulator:
    """A deterministic discrete-event simulator.

    Attributes:
        now: Current virtual time in seconds.
        trace: This simulation's trace bus (disabled until a sink
            subscribes; process-wide sinks are attached automatically).
        metrics: This simulation's metrics registry (counters, gauges,
            histograms recorded by the stack).
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
        for sink in global_sinks():
            self.trace.subscribe(sink)
        self.metrics = MetricsRegistry()
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
        kernel = active_kernel_profiler()
        fp_config = configured_fingerprint()
        fingerprint: Optional[EventFingerprinter] = None
        if fp_config is not None:
            fingerprint = self._fingerprint
            if fingerprint is None or fingerprint.config is not fp_config:
                fingerprint = self._fingerprint = EventFingerprinter(
                    self, fp_config
                )
        acc_map = kernel._acc if kernel is not None and kernel.handlers else None
        wall_start = perf_counter() if kernel is not None else 0.0
        queue = self._queue
        peak_depth = len(queue)
        try:
            if acc_map is None and fingerprint is None:
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
                # Observed variant of the loop above, driving whichever of
                # the two instruments is present.  Kept as a separate
                # branch (not per-event checks in the plain loop) so
                # instrument-off runs execute exactly the plain loop.
                # Neither instrument touches event order, the clock, or
                # RNG draws, so observed runs keep exact output digests.
                # The fingerprint folds the event in BEFORE fire(), so a
                # handler that raises still leaves the divergent event on
                # the stream.  Kernel timing wraps the queue's peek/pop
                # (booked under the `dispatch` sentinel, the
                # `sim.scheduler` subsystem) and the fire() call (booked
                # under the handler); push time lands in whichever handler
                # scheduled the event.  The accumulator update is inlined
                # rather than calling kernel.note() to keep the profiled
                # overhead small on event-dense workloads.
                note = fingerprint.note if fingerprint is not None else None
                sched_acc = None
                if acc_map is not None:
                    sched_acc = acc_map.get(dispatch)
                    if sched_acc is None:
                        sched_acc = acc_map[dispatch] = [0, 0]
                while queue and not self._stopped:
                    if sched_acc is not None:
                        sched_start = perf_counter_ns()
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
                    if sched_acc is not None:
                        sched_acc[0] += 1
                        sched_acc[1] += perf_counter_ns() - sched_start
                    if event.time < self.now:
                        raise SimulationError(
                            f"event queue yielded past event (t={event.time} < now={self.now})"
                        )
                    self.now = event.time
                    if note is not None:
                        note(event)
                    if acc_map is None:
                        event.fire()
                    else:
                        fire_start = perf_counter_ns()
                        event.fire()
                        elapsed_ns = perf_counter_ns() - fire_start
                        callback = event.callback
                        key = getattr(callback, "__func__", callback)
                        acc = acc_map.get(key)
                        if acc is None:
                            acc = acc_map[key] = [0, 0]
                        acc[0] += 1
                        acc[1] += elapsed_ns
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
        """Stop the current (or next) :meth:`run` after the active event."""
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
