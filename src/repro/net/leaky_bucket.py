"""Application-level leaky bucket pacing (§V-2).

The Android UDP send API accepts packets far faster than the MAC broadcast
rate can drain them, so the OS send buffer overflows and *silently*
discards messages — the root cause of the 14% raw reception rate.  PDS
paces its own sending with a leaky bucket: at most ``BucketCapacity``
un-leaked bytes are allowed toward the OS at once, refilled at
``LeakingRate``.  The application's own backlog waits in an app-side queue
(the app controls its own data, unlike the opaque OS buffer), so pacing
never loses frames by itself; loss still occurs in the OS buffer when the
bucket is configured too aggressively — exactly the behaviour the paper's
parameter exploration measures (§V-4):

* too large a ``BucketCapacity`` lets a burst overflow the OS buffer;
* too high a ``LeakingRate`` exceeds the MAC drain rate and builds up the
  OS buffer until it overflows.

The paper's best operating point is 300 KB capacity, 4.5 Mbps leak rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.errors import ConfigurationError
from repro.net.message import Frame
from repro.sim.simulator import Simulator

#: Best BucketCapacity found in §V-4.
DEFAULT_BUCKET_CAPACITY = 300 * 1024

#: Best LeakingRate found in §V-4.
DEFAULT_LEAK_RATE_BPS = 4.5e6


@dataclass(frozen=True)
class LeakyBucketConfig:
    """Pacing knobs (BucketCapacity / LeakingRate in the paper)."""

    capacity_bytes: int = DEFAULT_BUCKET_CAPACITY
    leak_rate_bps: float = DEFAULT_LEAK_RATE_BPS

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("bucket capacity must be positive")
        if self.leak_rate_bps <= 0:
            raise ConfigurationError("leak rate must be positive")


class LeakyBucket:
    """Token-bucket pacer releasing frames to a sink callback.

    Tokens are bytes: the bucket starts full at ``capacity_bytes`` and
    refills at ``leak_rate_bps``.  Releasing a frame consumes its size in
    tokens, so bursts are bounded by the capacity and the sustained rate by
    the leak rate.  Frames the tokens cannot yet cover wait in an unbounded
    app-side FIFO.

    The sink (usually ``Radio.send``) may return False to signal that the
    OS buffer silently dropped the frame; ``on_drop`` is then invoked so
    the reliability layer can schedule a retransmission.
    """

    def __init__(
        self,
        sim: Simulator,
        sink: Callable[[Frame], object],
        config: Optional[LeakyBucketConfig] = None,
        on_drop: Optional[Callable[[Frame], None]] = None,
    ) -> None:
        self.sim = sim
        self.sink = sink
        self.config = config if config is not None else LeakyBucketConfig()
        self.on_drop = on_drop
        self._queue: Deque[Frame] = deque()
        self._queued_bytes = 0
        self._tokens = float(self.config.capacity_bytes)
        self._last_refill = sim.now
        self._wakeup_pending = False
        self.dropped_frames = 0

    # ------------------------------------------------------------------
    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting in the app-side queue."""
        return self._queued_bytes

    @property
    def queue_length(self) -> int:
        """Frames currently waiting in the app-side queue."""
        return len(self._queue)

    def queued_frames(self):
        """Snapshot of the frames currently waiting (read-only use)."""
        return list(self._queue)

    def tokens(self) -> float:
        """Current token balance in bytes (after refill)."""
        self._refill()
        return self._tokens

    # ------------------------------------------------------------------
    def offer(self, frame: Frame) -> bool:
        """Submit a frame for paced sending.  Always accepted."""
        self._queue.append(frame)
        self._queued_bytes += frame.size
        self._drain()
        return True

    def _refill(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(
                float(self.config.capacity_bytes),
                self._tokens + elapsed * self.config.leak_rate_bps / 8.0,
            )
            self._last_refill = now

    def _drain(self) -> None:
        self._refill()
        while self._queue:
            head = self._queue[0]
            # A frame larger than the whole bucket is released at the
            # full-bucket moment (tokens may go negative, preserving the
            # long-run rate); otherwise it could never be sent.
            need = min(float(head.size), float(self.config.capacity_bytes))
            if self._tokens < need:
                break
            self._queue.popleft()
            self._queued_bytes -= head.size
            self._tokens -= head.size
            accepted = self.sink(head)
            if accepted is False:
                self.dropped_frames += 1
                if self.on_drop is not None:
                    self.on_drop(head)
        if self._queue and not self._wakeup_pending:
            head = self._queue[0]
            need = min(float(head.size), float(self.config.capacity_bytes))
            deficit = need - self._tokens
            delay = deficit * 8.0 / self.config.leak_rate_bps
            self._wakeup_pending = True
            self.sim.schedule(max(delay, 1e-6), self._wakeup)

    def _wakeup(self) -> None:
        self._wakeup_pending = False
        self._drain()

    def remove(self, frame: Frame) -> bool:
        """Withdraw a specific queued frame (by object identity).

        Returns:
            True if the frame was still queued and has been removed.
        """
        # By index: ``deque.remove`` compares with ``==``, and frames are
        # value-equal dataclasses, so it could withdraw an equal twin.
        for index, queued in enumerate(self._queue):
            if queued is frame:
                del self._queue[index]
                self._queued_bytes -= frame.size
                return True
        return False

    def flush(self) -> None:
        """Drop everything still queued (node left the network)."""
        self._queue.clear()
        self._queued_bytes = 0
