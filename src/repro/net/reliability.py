"""Per-hop ack/retransmission (§V-1).

After transmitting a frame whose ``needs_ack`` flag is set, the sender
waits ``RetrTimeout`` for application-level acks from every intended
receiver.  If some are missing it retransmits the frame with the receiver
list rewritten to the not-yet-acked subset, up to ``MaxRetrTime`` times.

The paper's best operating point is RetrTimeout = 0.2 s, MaxRetrTime = 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Set

from repro.errors import ConfigurationError
from repro.net.message import AckMessage, Frame, frame_corr_fields, make_ack_frame
from repro.net.topology import NodeId
from repro.sim.event import Event
from repro.sim.simulator import Simulator

#: Best RetrTimeout found in §V-4.
DEFAULT_RETR_TIMEOUT_S = 0.2

#: Best MaxRetrTime found in §V-4.
DEFAULT_MAX_RETRANSMISSIONS = 4


@dataclass(frozen=True)
class ReliabilityConfig:
    """Ack/retransmission knobs (RetrTimeout / MaxRetrTime in the paper).

    The paper tuned RetrTimeout with 1.5 KB packets whose airtime is
    negligible; with chunk-sized frames the effective timeout must also
    cover the frame's own airtime (otherwise every chunk is retransmitted
    spuriously while its ack is still contending for the channel), so the
    sender adds a per-frame airtime allowance and backs off exponentially
    on successive retries.
    """

    retr_timeout_s: float = DEFAULT_RETR_TIMEOUT_S
    max_retransmissions: int = DEFAULT_MAX_RETRANSMISSIONS
    backoff_factor: float = 2.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.retr_timeout_s <= 0:
            raise ConfigurationError("RetrTimeout must be positive")
        if self.max_retransmissions < 0:
            raise ConfigurationError("MaxRetrTime must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")


class _PendingAck:
    """Book-keeping for one frame awaiting acks."""

    __slots__ = ("frame", "waiting", "retries_left", "timer_event")

    def __init__(self, frame: Frame, waiting: Set[NodeId], retries_left: int) -> None:
        self.frame = frame
        self.waiting = waiting
        self.retries_left = retries_left
        self.timer_event: Optional[Event] = None


class ReliabilitySender:
    """Sender half: retransmits until acked or retries exhausted.

    Args:
        sim: The simulator (for timers).
        submit: Callable that actually sends a frame (usually the leaky
            bucket's ``offer``); retransmissions re-enter the same path.
        config: Timeout/retry knobs.
    """

    def __init__(
        self,
        sim: Simulator,
        submit: Callable[[Frame], object],
        config: Optional[ReliabilityConfig] = None,
        airtime: Optional[Callable[[int], float]] = None,
        cancel_queued: Optional[Callable[[Frame], None]] = None,
    ) -> None:
        self.sim = sim
        self.submit = submit
        self.config = config if config is not None else ReliabilityConfig()
        #: Estimated channel time of a frame of N bytes (for timeouts).
        self.airtime = airtime if airtime is not None else (lambda size: 0.0)
        #: Hook to withdraw a queued-but-untransmitted retry once acked.
        self.cancel_queued = cancel_queued
        self._pending: Dict[int, _PendingAck] = {}
        self.retransmitted_frames = 0
        self.abandoned_frames = 0

    def _timeout_for(self, frame: Frame) -> float:
        # The airtime allowance covers the ack's own channel-access delay:
        # while chunk-sized frames saturate the channel, an ack routinely
        # waits several frame times for a CSMA slot.  For the paper's
        # 1.5 KB packets this term is negligible and the timeout is the
        # configured RetrTimeout, as measured in §V-4.
        base = self.config.retr_timeout_s + 8.0 * self.airtime(frame.size)
        return base * (self.config.backoff_factor**frame.retransmission)

    # ------------------------------------------------------------------
    def send(self, frame: Frame, ack_from: FrozenSet[NodeId]) -> None:
        """Send ``frame``, expecting acks from ``ack_from``.

        With reliability disabled, or an empty ack set, the frame is sent
        exactly once.
        """
        needs_ack = (
            self.config.enabled
            and bool(ack_from)
            and self.config.max_retransmissions > 0
        )
        frame.needs_ack = needs_ack
        if needs_ack:
            self._pending[frame.frame_id] = _PendingAck(
                frame, set(ack_from), self.config.max_retransmissions
            )
        self.submit(frame)

    def frame_transmitted(self, frame: Frame) -> None:
        """Radio upcall: the frame is on the air; start the ack timer."""
        pending = self._pending.get(frame.frame_id)
        if pending is None or not frame.needs_ack:
            return
        if pending.timer_event is not None:
            self.sim.cancel(pending.timer_event)
        pending.timer_event = self.sim.schedule(
            self._timeout_for(frame), self._timeout, frame.frame_id
        )

    def frame_dropped(self, frame: Frame) -> None:
        """The OS buffer silently dropped this frame before transmission.

        Without this hook the ack timer would never start (it normally
        starts when the radio reports the frame on the air) and the frame
        would never be retransmitted.  Treat the drop like a lost copy:
        arm the timeout so the normal retry path runs.
        """
        pending = self._pending.get(frame.frame_id)
        if pending is None or not frame.needs_ack:
            return
        if pending.timer_event is None:
            pending.timer_event = self.sim.schedule(
                self._timeout_for(frame), self._timeout, frame.frame_id
            )

    def ack_received(self, ack: AckMessage) -> None:
        """Process an ack heard from the air."""
        pending = self._pending.get(ack.frame_id)
        if pending is None:
            return
        pending.waiting.discard(ack.acker)
        if not pending.waiting:
            if pending.timer_event is not None:
                self.sim.cancel(pending.timer_event)
            del self._pending[ack.frame_id]
            # A retry copy may still sit in the pacing/OS queues; withdraw
            # it rather than waste channel time on a frame nobody needs.
            if self.cancel_queued is not None and pending.frame.retransmission > 0:
                self.cancel_queued(pending.frame)

    def _timeout(self, frame_id: int) -> None:
        pending = self._pending.get(frame_id)
        if pending is None:
            return
        pending.timer_event = None
        if not pending.waiting:
            del self._pending[frame_id]
            return
        if pending.retries_left <= 0:
            self.abandoned_frames += 1
            del self._pending[frame_id]
            trace = self.sim.trace
            if trace.enabled:
                trace.emit(
                    "abandon",
                    node=pending.frame.sender,
                    frame_id=frame_id,
                    frame_kind=pending.frame.kind,
                    unacked=len(pending.waiting),
                    **frame_corr_fields(pending.frame),
                )
            return
        pending.retries_left -= 1
        self.retransmitted_frames += 1
        retry = pending.frame.copy_for_retransmission(frozenset(pending.waiting))
        retry.enqueued_at = self.sim.now
        pending.frame = retry
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                "retransmit",
                node=retry.sender,
                frame_id=frame_id,
                frame_kind=retry.kind,
                retx=retry.retransmission,
                waiting=len(pending.waiting),
                **frame_corr_fields(retry),
            )
        self.submit(retry)
        # Arm a *fallback* deadline now so a retry stuck in deep queues
        # cannot stall the chain — but make it generous (5×): the accurate
        # deadline is re-armed by frame_transmitted when the retry airs,
        # and a tight submit-time timer would fire while the retry is
        # still queued under congestion, snowballing spurious copies.
        pending.timer_event = self.sim.schedule(
            5.0 * self._timeout_for(retry), self._timeout, frame_id
        )

    def cancel_frame(self, frame_id: int) -> None:
        """Withdraw one outstanding frame (caller suppressed it)."""
        pending = self._pending.pop(frame_id, None)
        if pending is not None and pending.timer_event is not None:
            self.sim.cancel(pending.timer_event)

    def cancel_all(self) -> None:
        """Abandon all outstanding frames (node left)."""
        for pending in self._pending.values():
            if pending.timer_event is not None:
                self.sim.cancel(pending.timer_event)
        self._pending.clear()

    @property
    def outstanding(self) -> int:
        """Number of frames still awaiting acks."""
        return len(self._pending)


class ReliabilityReceiver:
    """Receiver half: acks addressed frames, suppresses duplicate upcalls.

    Retransmissions share the original ``frame_id``; the receiver remembers
    recently seen ids so the device processes each logical frame once while
    still re-acking duplicates (the first ack may have been lost).
    """

    def __init__(
        self,
        node_id: NodeId,
        send_ack: Callable[[Frame], None],
        history_limit: int = 4096,
    ) -> None:
        self.node_id = node_id
        self.send_ack = send_ack
        self.history_limit = history_limit
        self._seen: Dict[int, None] = {}

    def accept(self, frame: Frame) -> bool:
        """Handle link-level duties; returns True if payload is new.

        Acks are sent only for frames explicitly addressed to this node;
        overheard frames are never acked but are still reported (once) so
        the device can cache their content.
        """
        if frame.needs_ack and frame.receivers is not None and frame.addressed_to(
            self.node_id
        ):
            self.send_ack(make_ack_frame(self.node_id, frame))
        if frame.frame_id in self._seen:
            return False
        self._seen[frame.frame_id] = None
        if len(self._seen) > self.history_limit:
            # Drop the oldest half; dict preserves insertion order.
            for key in list(self._seen)[: self.history_limit // 2]:
                del self._seen[key]
        return True
