"""Per-node radio: OS send buffer + CSMA transmit loop.

Models the path below the application on an Android phone (§V-2): frames
enter a finite OS buffer (newly arrived frames are *silently dropped* when
it is full — the documented cause of the 14% raw-UDP reception) and drain
one at a time at the MAC broadcast rate, deferring with random backoff
while the channel is busy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from collections import deque

from repro.errors import ConfigurationError
from repro.net.medium import BroadcastMedium
from repro.net.message import Frame, frame_corr_fields
from repro.net.topology import NodeId
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class RadioConfig:
    """Link-level knobs.

    Attributes:
        os_buffer_bytes: Capacity of the OS send buffer.  The paper's
            validation saw ≈658 × 1.5 KB frames accepted before overflow,
            i.e. ≈1 MB.
        backoff_min_s / backoff_max_s: Uniform random deferral when the
            channel is sensed busy, applied after the channel frees.
        inter_frame_gap_s: Idle gap between back-to-back own transmissions.
    """

    os_buffer_bytes: int = 1_000_000
    backoff_min_s: float = 0.2e-3
    backoff_max_s: float = 1.5e-3
    inter_frame_gap_s: float = 0.1e-3

    def __post_init__(self) -> None:
        if self.os_buffer_bytes <= 0:
            raise ConfigurationError("os_buffer_bytes must be positive")
        if not 0 <= self.backoff_min_s <= self.backoff_max_s:
            raise ConfigurationError("backoff window must satisfy 0 <= min <= max")


class Radio:
    """A half-duplex CSMA radio with a finite OS send buffer."""

    def __init__(
        self,
        sim: Simulator,
        medium: BroadcastMedium,
        node_id: NodeId,
        rng: random.Random,
        config: Optional[RadioConfig] = None,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.node_id = node_id
        self.rng = rng
        self.config = config if config is not None else RadioConfig()
        self._queue: Deque[Frame] = deque()
        self._queued_bytes = 0
        self._sending = False
        self._sent_callback: Optional[Callable[[Frame], None]] = None
        #: Frames queued across *all* radios of the simulation: every radio
        #: shares the one registry gauge and moves it by its own changes.
        self._queue_gauge = sim.metrics.gauge("net.radio_queue_frames")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def on_receive(self, callback: Callable[[Frame], None]) -> None:
        """Register with the medium the upcall for every frame heard on the
        air (a face registers its own handler the same way)."""
        self.medium.attach(self.node_id, callback)

    def on_sent(self, callback: Callable[[Frame], None]) -> None:
        """Set the upcall invoked when a frame finishes transmitting.

        The reliability layer uses this to start retransmission timers at
        the moment the frame actually left the radio.
        """
        self._sent_callback = callback

    def shutdown(self) -> None:
        """Detach from the medium and drop queued frames (node left)."""
        self.medium.detach(self.node_id)
        self._drop_queue()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, frame: Frame, priority: bool = False) -> bool:
        """Enqueue a frame into the OS buffer.

        Returns:
            False if the buffer was full and the frame was silently dropped
            (the Android UDP overflow behaviour), True otherwise.
        """
        if self._queued_bytes + frame.size > self.config.os_buffer_bytes:
            self.medium.stats.frames_dropped_buffer += 1
            trace = self.sim.trace
            if trace.enabled:
                trace.emit(
                    "frame_dropped",
                    node=self.node_id,
                    frame_id=frame.frame_id,
                    frame_kind=frame.kind,
                    size=frame.size,
                    reason="os_buffer",
                    **frame_corr_fields(frame),
                )
            return False
        if priority:
            self._queue.appendleft(frame)
        else:
            self._queue.append(frame)
        self._queued_bytes += frame.size
        self._count_queued(1)
        self._pump()
        return True

    def remove(self, frame: Frame) -> bool:
        """Withdraw a queued frame (by object identity) before it airs.

        Returns:
            True if the frame was still in the OS buffer and was removed.
        """
        for index, queued in enumerate(self._queue):
            if queued is frame:
                del self._queue[index]
                self._queued_bytes -= frame.size
                self._count_queued(-1)
                return True
        return False

    def _count_queued(self, delta: int) -> None:
        # Timestamped set: the gauge integrates depth over sim time, so
        # snapshots report a time-weighted mean depth, not just the last.
        gauge = self._queue_gauge
        gauge.set(gauge.value + delta, now=self.sim.now)

    def _drop_queue(self) -> None:
        if self._queue:
            self._count_queued(-len(self._queue))
            self._queue.clear()
        self._queued_bytes = 0

    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting in the OS buffer."""
        return self._queued_bytes

    @property
    def queue_length(self) -> int:
        """Frames currently waiting in the OS buffer."""
        return len(self._queue)

    def queued_frames(self):
        """Snapshot of the frames currently waiting (read-only use)."""
        return list(self._queue)

    def _pump(self) -> None:
        if self._sending or not self._queue:
            return
        self._sending = True
        self._attempt()

    def _attempt(self) -> None:
        if not self._queue:
            self._sending = False
            return
        if self.node_id not in self.medium.topology.positions:
            # Node left the area; discard outstanding traffic.
            self._drop_queue()
            self._sending = False
            return
        # One carrier-sense query: every transmission still on the air ends
        # after ``now``, so ``until > now`` exactly when the channel is busy.
        until = self.medium.busy_until(self.node_id)
        now = self.sim.now
        if until > now:
            # ``rng.uniform(lo, hi)`` spelt out: the same draw and arithmetic.
            lo = self.config.backoff_min_s
            backoff = lo + (self.config.backoff_max_s - lo) * self.rng.random()
            self.sim.schedule((until - now) + backoff, self._attempt)
            return
        frame = self._queue.popleft()
        self._queued_bytes -= frame.size
        self._count_queued(-1)
        duration = self.medium.transmit(frame)
        self.sim.schedule(duration, self._finished, frame)

    def _finished(self, frame: Frame) -> None:
        if self._sent_callback is not None:
            self._sent_callback(frame)
        if self._queue:
            # ``rng.uniform(0.0, max)``: the same draw, and exactly ``max * r``.
            config = self.config
            gap = config.inter_frame_gap_s + config.backoff_max_s * self.rng.random()
            self.sim.schedule(gap, self._attempt)
        else:
            self._sending = False
