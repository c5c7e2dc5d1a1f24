"""Frames: the unit of transmission on the broadcast medium.

A frame wraps one protocol message (the ``payload``) with link-level
addressing.  ``receivers`` carries the *intended receiver list* of §III —
``None`` means "all neighbors" (flooding); otherwise only the listed nodes
act on/forward the payload, while every in-range node still overhears it
and may cache its content.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.net.topology import NodeId

#: Byte cost of link/UDP/IP headers per frame (compact model).
FRAME_HEADER_BYTES = 36

#: Payload size of an application-level ack (§V-1: frame id + node id).
ACK_PAYLOAD_BYTES = 12

_frame_ids = itertools.count(1)


def reset_frame_ids(start: int = 1) -> None:
    """Rewind the frame-id space to ``start`` (scenario construction).

    Frame ids need only be unique within one run (acks and retransmit
    bookkeeping never cross simulations); resetting per scenario makes
    them deterministic per run, so fingerprinted runs compare equal
    across processes and schedulers.
    """
    global _frame_ids
    _frame_ids = itertools.count(start)


@dataclass(frozen=True)
class Correlation:
    """Causal correlation ids carried from a payload down to the link layer.

    Frames stamp these onto every link-level trace event (``frame_sent``,
    ``frame_delivered``, ``frame_lost``, ``frame_dropped``, ``retransmit``,
    ``abandon``) so an offline span reconstructor can attribute channel
    activity to the query/response/chunk that caused it.  Payload objects
    opt in by exposing a ``correlation()`` method; the face copies the
    result onto the frame at send time (the link layer itself stays
    protocol-agnostic).
    """

    query_id: Optional[int] = None
    response_id: Optional[int] = None
    round: Optional[int] = None
    chunk_id: Optional[int] = None
    consumer: Optional[NodeId] = None
    hop: Optional[int] = None

    def trace_fields(self) -> Dict[str, object]:
        """The non-empty fields, ready to merge into a trace event."""
        fields: Dict[str, object] = {}
        if self.query_id is not None:
            fields["query_id"] = self.query_id
        if self.response_id is not None:
            fields["response_id"] = self.response_id
        if self.round is not None:
            fields["round"] = self.round
        if self.chunk_id is not None:
            fields["chunk_id"] = self.chunk_id
        if self.consumer is not None:
            fields["consumer"] = self.consumer
        if self.hop is not None:
            fields["hop"] = self.hop
        return fields


def frame_corr_fields(frame: "Frame") -> Dict[str, object]:
    """Correlation fields of a frame, or an empty dict when unstamped."""
    corr = frame.corr
    return corr.trace_fields() if corr is not None else {}


@dataclass
class Frame:
    """One link-layer transmission.

    Attributes:
        sender: Current-hop transmitter.
        payload: The protocol message carried (opaque to the link layer).
        payload_size: Serialized payload size in bytes.
        receivers: Intended receivers at this hop, or None for all neighbors.
        needs_ack: Whether the reliability layer expects per-receiver acks.
        kind: Short label for stats ("query", "response", "chunk", "ack"...).
        frame_id: Unique id acked by receivers; fresh per logical send,
            shared across retransmissions of the same frame.
        retransmission: 0 for the first copy, 1.. for retries.
        enqueued_at: Virtual time this copy entered the send path (stamped
            by the face / reliability layer; feeds the per-hop latency
            histogram).
        corr: Causal correlation ids derived from the payload (stamped by
            the sending face); shared across retransmissions.
        size: Total on-air bytes including frame headers (derived from
            ``payload_size`` at construction).
    """

    sender: NodeId
    payload: object
    payload_size: int
    receivers: Optional[FrozenSet[NodeId]] = None
    needs_ack: bool = False
    kind: str = "data"
    frame_id: int = field(default_factory=lambda: next(_frame_ids))
    retransmission: int = 0
    enqueued_at: Optional[float] = None
    corr: Optional[Correlation] = None
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.size = self.payload_size + FRAME_HEADER_BYTES

    def addressed_to(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` is an intended receiver of this frame."""
        return self.receivers is None or node_id in self.receivers

    def copy_for_retransmission(self, receivers: FrozenSet[NodeId]) -> "Frame":
        """A retry copy aimed at the not-yet-acked subset (§V-1)."""
        return Frame(
            sender=self.sender,
            payload=self.payload,
            payload_size=self.payload_size,
            receivers=receivers,
            needs_ack=self.needs_ack,
            kind=self.kind,
            frame_id=self.frame_id,
            retransmission=self.retransmission + 1,
            corr=self.corr,
        )


@dataclass
class AckMessage:
    """Application-level ack payload (§V-1)."""

    frame_id: int
    acker: NodeId


def make_ack_frame(sender: NodeId, acked_frame: Frame) -> Frame:
    """Build the ack frame a receiver returns for ``acked_frame``."""
    return Frame(
        sender=sender,
        payload=AckMessage(frame_id=acked_frame.frame_id, acker=sender),
        payload_size=ACK_PAYLOAD_BYTES,
        receivers=frozenset({acked_frame.sender}),
        needs_ack=False,
        kind="ack",
    )
