"""Transmission statistics: the message-overhead metric of §VI-A.

The paper's *message overhead* is "the number of bytes of all messages".
We count every frame put on the air — data, retransmissions and acks — and
also keep per-kind breakdowns for the ablation benches.

The scalar counters are backed by a :class:`repro.obs.metrics.MetricsRegistry`
(``net.*`` namespace) so traced/profiled runs surface them alongside the
frame-size and per-hop-latency histograms, while the attribute API
(``stats.frames_lost_collision += 1`` etc.) stays exactly as before.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Union

from repro.obs.metrics import MetricsRegistry

#: Frame-size histogram buckets (bytes): acks up to chunk-sized frames.
FRAME_SIZE_BUCKETS = (64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576)

Number = Union[int, float]


def _counter_property(attr: str):
    """An int-like attribute delegating to a registry counter."""

    def getter(self: "NetworkStats") -> Number:
        return getattr(self, attr).value

    def setter(self: "NetworkStats", value: Number) -> None:
        getattr(self, attr).value = value

    return property(getter, setter)


class NetworkStats:
    """Mutable counters shared by all radios on one medium."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._frames_sent = self.registry.counter("net.frames_sent")
        self._bytes_sent = self.registry.counter("net.bytes_sent")
        self._frames_delivered = self.registry.counter("net.frames_delivered")
        self._frames_lost_collision = self.registry.counter(
            "net.frames_lost_collision"
        )
        self._frames_lost_random = self.registry.counter("net.frames_lost_random")
        self._frames_lost_busy_receiver = self.registry.counter(
            "net.frames_lost_busy_receiver"
        )
        self._frames_dropped_buffer = self.registry.counter(
            "net.frames_dropped_buffer"
        )
        self._frames_dropped_bucket = self.registry.counter(
            "net.frames_dropped_bucket"
        )
        self._frame_sizes = self.registry.histogram(
            "net.frame_size_bytes", FRAME_SIZE_BUCKETS
        )
        self._response_sizes = self.registry.histogram(
            "net.response_size_bytes", FRAME_SIZE_BUCKETS
        )
        self.bytes_by_kind: Counter = Counter()
        self.frames_by_kind: Counter = Counter()

    frames_sent = _counter_property("_frames_sent")
    bytes_sent = _counter_property("_bytes_sent")
    frames_delivered = _counter_property("_frames_delivered")
    frames_lost_collision = _counter_property("_frames_lost_collision")
    frames_lost_random = _counter_property("_frames_lost_random")
    frames_lost_busy_receiver = _counter_property("_frames_lost_busy_receiver")
    frames_dropped_buffer = _counter_property("_frames_dropped_buffer")
    frames_dropped_bucket = _counter_property("_frames_dropped_bucket")

    def record_transmission(self, kind: str, size: int) -> None:
        """Account one frame put on the air."""
        self._frames_sent.value += 1
        self._bytes_sent.value += size
        self.bytes_by_kind[kind] += size
        self.frames_by_kind[kind] += 1
        self._frame_sizes.observe(size)
        if "response" in kind:
            self._response_sizes.observe(size)

    # Hot-path helpers: the medium calls these once per frame with the
    # copies it delivered or lost, so they bump the backing counters
    # directly instead of going through the property descriptors.
    def record_delivery(self, count: int = 1) -> None:
        """Account ``count`` delivered frame copies."""
        self._frames_delivered.value += count

    def record_loss(self, reason: str, count: int = 1) -> None:
        """Account ``count`` lost frame copies (``collision``/``random``/``busy_receiver``)."""
        getattr(self, f"_frames_lost_{reason}").value += count

    def overhead_bytes(self, include_acks: bool = True) -> int:
        """Total transmitted bytes (the paper's message overhead)."""
        if include_acks:
            return self.bytes_sent
        return self.bytes_sent - self.bytes_by_kind.get("ack", 0)

    def loss_ratio(self) -> float:
        """Fraction of per-receiver deliveries that were lost on the air."""
        lost = (
            self.frames_lost_collision
            + self.frames_lost_random
            + self.frames_lost_busy_receiver
        )
        attempts = self.frames_delivered + lost
        return lost / attempts if attempts else 0.0

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict snapshot for reporting.

        Includes the per-kind breakdowns (nested dicts) so benches read
        them from here instead of reaching into the live counters.
        """
        return {
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "frames_delivered": self.frames_delivered,
            "frames_lost_collision": self.frames_lost_collision,
            "frames_lost_random": self.frames_lost_random,
            "frames_lost_busy_receiver": self.frames_lost_busy_receiver,
            "frames_dropped_buffer": self.frames_dropped_buffer,
            "frames_dropped_bucket": self.frames_dropped_bucket,
            "loss_ratio": self.loss_ratio(),
            "bytes_by_kind": dict(self.bytes_by_kind),
            "frames_by_kind": dict(self.frames_by_kind),
        }

    def __repr__(self) -> str:
        return (
            f"NetworkStats(frames_sent={self.frames_sent}, "
            f"bytes_sent={self.bytes_sent}, "
            f"frames_delivered={self.frames_delivered})"
        )
