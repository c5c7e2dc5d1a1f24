"""The PDS protocol core: discovery (PDD), retrieval (PDR), MDR baseline."""

from repro.core.assignment import assign_chunks, max_load
from repro.core.cdi import CdiEntry, CdiTable
from repro.core.consumer import (
    DiscoverySession,
    MdrSession,
    RetrievalSession,
    SessionResult,
)
from repro.core.discovery import DiscoveryEngine
from repro.core.interest import (
    InterestData,
    InterestDiscoverySession,
    InterestEngine,
    InterestQuery,
)
from repro.core.lqt import LingeringEntry, LingeringQueryTable, RecentResponses
from repro.core.mdr import MdrEngine
from repro.core.messages import (
    CdiQuery,
    CdiResponse,
    ChunkQuery,
    ChunkResponse,
    DiscoveryQuery,
    DiscoveryResponse,
    MdrQuery,
    next_message_id,
)
from repro.core.retrieval import CdiEngine, ChunkEngine
from repro.core.rounds import RoundConfig, RoundController

__all__ = [
    "CdiEngine",
    "CdiEntry",
    "CdiQuery",
    "CdiResponse",
    "CdiTable",
    "ChunkEngine",
    "ChunkQuery",
    "ChunkResponse",
    "DiscoveryEngine",
    "DiscoveryQuery",
    "DiscoveryResponse",
    "DiscoverySession",
    "InterestData",
    "InterestDiscoverySession",
    "InterestEngine",
    "InterestQuery",
    "LingeringEntry",
    "LingeringQueryTable",
    "MdrEngine",
    "MdrQuery",
    "MdrSession",
    "RecentResponses",
    "RetrievalSession",
    "RoundConfig",
    "RoundController",
    "SessionResult",
    "assign_chunks",
    "max_load",
    "next_message_id",
]
