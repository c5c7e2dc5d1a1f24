"""The Lingering Query Table (§III-A).

A lingering query stays in the table until its expiration and keeps
directing the continuous stream of returning responses toward the consumer
— the key difference from one-shot CCN/NDN Interests.

Each entry records the *upstream* neighbor (the node that transmitted the
query to us, i.e. the reverse-path next hop), plus per-query mutable state
used by the redundancy machinery:

* ``bloom`` — this node's working copy of the query's Bloom filter,
  updated as entries are forwarded through (en-route rewriting, §III-B-2);
* ``forwarded_keys`` — exact-set dedup for CDI/chunk relaying (which chunk
  ids, at which best hop count, were already sent toward this consumer).

:class:`LingeringEngine` is the plumbing every protocol shares (PDD, CDI,
chunk retrieval, the MDR baseline and the one-shot Interest baseline):
one table, one received-response set, admission of a query copy into the
table and the reliable send of a message to its own receivers.  Each
engine adds only its DS lookup, its forwarding rewrite and its
reverse-path merge rule.

Expiry is lazy.  :meth:`LingeringQueryTable.purge` — run by
``live_entries`` and ``len`` and, for an overheard chunk response, by the
chunk engine — drops every aged-out entry and reports it as
``lqt_expire``.  The table keeps a lower bound on its entries' earliest
``expires_at``: ``insert`` lowers it, a scan recomputes it, and deleting
an entry leaves it a bound.  Nothing changes an entry's ``expires_at``
after insertion, so a purge before the bound skips the scan, which then
would have dropped nothing; ``lqt_expire`` events keep exactly the
instants and order of scanning on every purge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Set

from repro.net.message import Frame
from repro.net.recent import RecentIds
from repro.net.topology import NodeId
from repro.obs.trace import TraceBus

if TYPE_CHECKING:
    from repro.node.device import Device


@dataclass
class LingeringEntry:
    """One lingering query plus its per-node relay state."""

    query: object
    upstream: NodeId
    expires_at: float
    is_origin: bool = False
    bloom: Optional[object] = None
    forwarded_keys: Set[object] = field(default_factory=set)
    best_hop_sent: Dict[int, int] = field(default_factory=dict)

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class LingeringQueryTable:
    """Query-id keyed table with lazy expiration.

    When given a trace bus (and the owning node id), the table publishes
    ``lqt_linger`` on insertion and ``lqt_expire`` when lazy purging drops
    an aged-out entry.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        trace: Optional[TraceBus] = None,
        node: Optional[NodeId] = None,
    ) -> None:
        self._clock = clock
        self._trace = trace
        self._node = node
        self._entries: Dict[int, LingeringEntry] = {}
        # Lower bound on the entries' earliest expires_at.
        self._bound = math.inf

    def _emit(self, kind: str, query_id: int, entry: LingeringEntry) -> None:
        trace = self._trace
        if trace is not None and trace.enabled:
            trace.emit(
                kind,
                node=self._node,
                query_id=query_id,
                origin=entry.is_origin,
                expires_at=entry.expires_at,
                consumer=getattr(entry.query, "origin_id", None),
                round=getattr(entry.query, "round_index", None),
            )

    def __len__(self) -> int:
        self.purge()
        return len(self._entries)

    def exists(self, query_id: int) -> bool:
        """Whether a live entry for this query id is present."""
        entry = self._entries.get(query_id)
        if entry is None:
            return False
        if entry.expired(self._clock()):
            del self._entries[query_id]
            self._emit("lqt_expire", query_id, entry)
            return False
        return True

    def insert(self, entry: LingeringEntry, query_id: int) -> None:
        """Insert a new lingering query (replaces an expired duplicate)."""
        self._entries[query_id] = entry
        if entry.expires_at < self._bound:
            self._bound = entry.expires_at
        self._emit("lqt_linger", query_id, entry)

    def get(self, query_id: int) -> Optional[LingeringEntry]:
        """The live entry for this query id, or None."""
        if not self.exists(query_id):
            return None
        return self._entries.get(query_id)

    def remove(self, query_id: int) -> None:
        """Explicitly drop an entry (e.g. a satisfied chunk query)."""
        self._entries.pop(query_id, None)

    def live_entries(self) -> Iterator[LingeringEntry]:
        """Iterate all unexpired entries."""
        self.purge()
        return iter(list(self._entries.values()))

    def purge(self) -> None:
        """Drop every expired entry, scanning only once one can have expired."""
        now = self._clock()
        if now < self._bound:
            return
        dead = []
        bound = math.inf
        for qid, entry in self._entries.items():
            if now >= entry.expires_at:
                dead.append(qid)
            elif entry.expires_at < bound:
                bound = entry.expires_at
        self._bound = bound
        for qid in dead:
            self._emit("lqt_expire", qid, self._entries[qid])
            del self._entries[qid]

    def observe_state(self) -> Dict[str, float]:
        """Flight-recorder view: ``{query_id: expires_at}`` of live entries.

        Strictly read-only — no lazy purge, no trace emission — so
        sampling a run cannot perturb it.  Expired-but-unpurged entries
        are filtered out of the view rather than deleted.
        """
        now = self._clock()
        return {
            str(qid): entry.expires_at
            for qid, entry in self._entries.items()
            if not entry.expired(now)
        }


class RecentResponses(RecentIds):
    """The received-response-id set of Algorithm 2's RR Lookup.

    A :class:`~repro.net.recent.RecentIds` history of response ids: once
    it holds more than ``limit`` (the constructor's ``history_limit``) it
    forgets the oldest half.
    """

    __slots__ = ()

    def __init__(self, history_limit: int = 8192) -> None:
        super().__init__(history_limit)


class LingeringEngine:
    """Per-device base of the protocol engines: LQT admission and sending.

    ``lqt`` holds the queries this node lingers (its own with
    ``is_origin``), ``recent`` the response ids it has already handled.
    """

    def __init__(self, device: "Device") -> None:
        self.device = device
        self.lqt = LingeringQueryTable(
            clock=lambda: device.sim.now,
            trace=device.sim.trace,
            node=device.node_id,
        )
        self.recent = RecentResponses()

    def observe_state(self) -> Dict[str, float]:
        """Flight-recorder view: the live lingering queries (read-only)."""
        return self.lqt.observe_state()

    def _linger(self, query, is_origin: bool = False) -> LingeringEntry:
        """Record ``query`` as lingering; upstream is the node that sent it.

        A query carrying a Bloom filter gets this node's own working copy.
        """
        bloom = getattr(query, "bloom", None)
        entry = LingeringEntry(
            query=query,
            upstream=query.sender_id,
            expires_at=query.expires_at,
            is_origin=is_origin,
            bloom=None if bloom is None else bloom.copy(),
        )
        self.lqt.insert(entry, query.message_id)
        return entry

    def _admit(self, query) -> Optional[LingeringEntry]:
        """{LQT Lookup}: None for a copy already lingering, else its entry."""
        if self.lqt.exists(query.message_id):
            return None
        return self._linger(query)

    def _send(self, message, kind: str) -> Frame:
        """Reliably transmit ``message`` to its own receiver set."""
        return self.device.face.send(
            message,
            message.wire_size(),
            receivers=message.receiver_ids,
            kind=kind,
            reliable=True,
        )
