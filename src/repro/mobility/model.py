"""Mobility event model.

Mobility is expressed as a stream of timed :class:`MobilityEvent` objects —
join, leave, and movement steps — applied to a :class:`Topology` (and, for
joins/leaves, to the device population) by a driver.  The generator
(:mod:`repro.mobility.campus`) produces traces;
:class:`repro.mobility.trace.TracePlayer` replays them in a simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.net.topology import NodeId, Position


class MobilityEventKind(enum.Enum):
    """What happened."""

    JOIN = "join"
    LEAVE = "leave"
    MOVE = "move"


@dataclass(frozen=True)
class MobilityEvent:
    """One timed mobility event.

    Attributes:
        time: Absolute trace time in seconds.
        kind: join / leave / move.
        node_id: The affected node.
        position: Where the node is (JOIN and MOVE; ignored for LEAVE).
    """

    time: float
    kind: MobilityEventKind
    node_id: NodeId
    position: Position = (0.0, 0.0)


@dataclass(frozen=True)
class AreaSpec:
    """A rectangular congregation area (§VI-B: student center, classroom)."""

    width: float
    height: float

    def contains(self, position: Position) -> bool:
        x, y = position
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height

    def clamp(self, position: Position) -> Position:
        x, y = position
        return (min(max(x, 0.0), self.width), min(max(y, 0.0), self.height))
