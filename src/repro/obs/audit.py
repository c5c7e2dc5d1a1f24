"""Protocol anomaly analyzer: causal invariants over correlated traces.

Checks a correlation-stamped trace (see :mod:`repro.obs.spans`) against
invariants the protocol must uphold.  Every check is *sound* for the
protocol as specified — a violation means the implementation diverged,
not that a heuristic disagreed:

``unanswered_query``
    A node's DS lookup reported fresh matches (``bloom_prune`` with
    ``misses > 0``) but no ``response_sent`` for that query ever left the
    node.  Algorithm 1 sends responses for every non-covered match.
``redundant_metadata``
    A PDD response carried a key the query's *issued* Bloom filter
    already covered.  Relay working copies only ever add bits, so they
    are supersets of the issued filter; Bloom filters have no false
    negatives — a sent key found in the issued filter is certain
    redundancy the §III-B-2 pruning should have suppressed.
``farther_copy``
    A chunk assignment's hop-weighted maximum load exceeded the pure
    greedy least-hop baseline recomputed from the recorded per-chunk
    options.  :func:`repro.core.assignment.assign_chunks` guarantees it
    never loses to that baseline, so exceeding it means chunks were
    requested from needlessly far copies.
``lingering_past_expiry``
    A query was *forwarded* at or after its own expiry.  (Responding
    after expiry is legitimate — DS lookup precedes the receiver/expiry
    check in Algorithm 1 — forwarding is not.)
``retransmission_storm``
    One frame was retransmitted more times than MaxRetrTime allows on a
    link, indicating runaway reliability state.
``early_round_stop``
    A discovery round ended before its window ``T`` elapsed, violating
    the §III-B-2 stop rule (the ratio test only runs after ``T``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import Event, scope_of

#: The invariants this module checks, in report order.
INVARIANTS = (
    "unanswered_query",
    "redundant_metadata",
    "farther_copy",
    "lingering_past_expiry",
    "retransmission_storm",
    "early_round_stop",
)

_TIME_EPSILON = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the trace location."""

    invariant: str
    scope: Tuple[str, int]
    time: float
    node: Optional[int]
    query_id: Optional[int]
    detail: str

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "shard": self.scope[0],
            "run": self.scope[1],
            "t": self.time,
            "node": self.node,
            "query_id": self.query_id,
            "detail": self.detail,
        }


@dataclass
class AuditReport:
    """All violations found in one trace, plus coverage counters."""

    violations: List[Violation] = field(default_factory=list)
    events_checked: int = 0
    queries_checked: int = 0
    responses_checked: int = 0
    assignments_checked: int = 0
    rounds_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> Dict[str, int]:
        """Violations per invariant (zero entries omitted)."""
        tally: Dict[str, int] = {}
        for violation in self.violations:
            tally[violation.invariant] = tally.get(violation.invariant, 0) + 1
        return tally

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "events_checked": self.events_checked,
            "queries_checked": self.queries_checked,
            "responses_checked": self.responses_checked,
            "assignments_checked": self.assignments_checked,
            "rounds_checked": self.rounds_checked,
            "counts": self.counts(),
            "violations": [v.to_json_dict() for v in self.violations],
        }


# ----------------------------------------------------------------------
def audit_events(
    events: Sequence[Event],
    max_retransmissions: Optional[int] = None,
) -> AuditReport:
    """Check every invariant over a (shard-tagged) event stream.

    Ids are only compared within one ``(shard, run)`` scope — forked
    workers inherit the id counters, so the same query id in two shards
    names two unrelated queries.  ``max_retransmissions`` defaults to the
    protocol's MaxRetrTime.
    """
    # Imported here, not at module scope: pulling protocol modules into
    # ``repro.obs`` at import time would close an import cycle through
    # the simulator (which itself imports ``repro.obs.trace``).
    from repro.bloom.bloom_filter import BloomFilter
    from repro.core.assignment import greedy_max_load
    from repro.net.reliability import DEFAULT_MAX_RETRANSMISSIONS

    if max_retransmissions is None:
        max_retransmissions = DEFAULT_MAX_RETRANSMISSIONS
    report = AuditReport(events_checked=len(events))

    # Pass 1: index per-scope state.
    issued_blooms: Dict[Tuple[str, int, int], BloomFilter] = {}
    issued_protos: Dict[Tuple[str, int, int], str] = {}
    prunes: Dict[Tuple[str, int, int, int], Event] = {}
    responded: set = set()
    retransmits: Dict[Tuple[str, int, int], List[Event]] = defaultdict(list)

    for event in events:
        kind = event.get("kind")
        scope = scope_of(event)
        if kind == "query_issued":
            key = scope + (int(event["query_id"]),)
            report.queries_checked += 1
            issued_protos[key] = str(event.get("proto", "?"))
            if "bloom_bits" in event:
                issued_blooms[key] = BloomFilter.from_trace_fields(event)
        elif kind == "bloom_prune":
            if int(event.get("misses", 0)) > 0:
                key = scope + (int(event["query_id"]), int(event.get("node", -1)))
                prunes.setdefault(key, event)
        elif kind == "response_sent":
            if event.get("query_id") is not None:
                responded.add(
                    scope + (int(event["query_id"]), int(event.get("node", -1)))
                )
        elif kind == "retransmit":
            retransmits[scope + (int(event.get("frame_id", -1)),)].append(event)

    # Pass 2: per-event invariants.
    for event in events:
        kind = event.get("kind")
        scope = scope_of(event)
        time = float(event.get("t", 0.0))
        node = event.get("node")
        node = int(node) if node is not None else None

        if kind == "response_sent" and event.get("proto") == "pdd":
            report.responses_checked += 1
            query_id = event.get("query_id")
            if query_id is None:
                continue
            bloom = issued_blooms.get(scope + (int(query_id),))
            if bloom is None:
                continue
            covered = [
                key
                for key in event.get("keys") or ()
                if bytes.fromhex(str(key)) in bloom
            ]
            if covered:
                report.violations.append(
                    Violation(
                        invariant="redundant_metadata",
                        scope=scope,
                        time=time,
                        node=node,
                        query_id=int(query_id),
                        detail=(
                            f"{len(covered)} key(s) already covered by the "
                            f"issued Bloom filter, e.g. {covered[0][:16]}..."
                        ),
                    )
                )

        elif kind == "chunk_assignment":
            options_doc = event.get("options")
            assignment_doc = event.get("assignment")
            if not options_doc or not assignment_doc:
                continue
            report.assignments_checked += 1
            options = {
                int(cid): [(int(n), int(h)) for n, h in pairs]
                for cid, pairs in options_doc.items()  # type: ignore[union-attr]
            }
            chosen = _chosen_max_load(options, assignment_doc)  # type: ignore[arg-type]
            if chosen is None:
                continue
            baseline = greedy_max_load(options)
            if chosen > baseline:
                report.violations.append(
                    Violation(
                        invariant="farther_copy",
                        scope=scope,
                        time=time,
                        node=node,
                        query_id=_opt_int(event.get("query_id")),
                        detail=(
                            f"hop-weighted max load {chosen} exceeds the "
                            f"greedy least-hop baseline {baseline}"
                        ),
                    )
                )

        elif kind == "query_forwarded":
            expires_at = event.get("expires_at")
            if expires_at is not None and time >= float(expires_at) - _TIME_EPSILON:
                report.violations.append(
                    Violation(
                        invariant="lingering_past_expiry",
                        scope=scope,
                        time=time,
                        node=node,
                        query_id=_opt_int(event.get("query_id")),
                        detail=(
                            f"forwarded at t={time:.3f}s, "
                            f"{time - float(expires_at):.3f}s past expiry"
                        ),
                    )
                )

        elif kind == "round_end":
            report.rounds_checked += 1
            window = event.get("window")
            duration = event.get("duration")
            if window is None or duration is None:
                continue
            if float(duration) < float(window) - _TIME_EPSILON:
                report.violations.append(
                    Violation(
                        invariant="early_round_stop",
                        scope=scope,
                        time=time,
                        node=node,
                        query_id=None,
                        detail=(
                            f"round {event.get('round')} stopped after "
                            f"{float(duration):.3f}s < window {float(window):.3f}s"
                        ),
                    )
                )

    # Pass 3: aggregated invariants.
    for key, prune in prunes.items():
        scope = key[:2]
        query_id, node_id = key[2], key[3]
        if key in responded:
            continue
        proto = issued_protos.get(scope + (query_id,))
        if proto is not None and proto != "pdd":
            continue  # CDI/MDR do not emit bloom_prune; defensive only
        report.violations.append(
            Violation(
                invariant="unanswered_query",
                scope=scope,
                time=float(prune.get("t", 0.0)),
                node=node_id if node_id >= 0 else None,
                query_id=query_id,
                detail=(
                    f"DS lookup found {prune.get('misses')} fresh match(es) "
                    f"but the node never sent a response"
                ),
            )
        )

    for key, retries in retransmits.items():
        if len(retries) > max_retransmissions:
            first = retries[0]
            report.violations.append(
                Violation(
                    invariant="retransmission_storm",
                    scope=key[:2],
                    time=float(retries[-1].get("t", 0.0)),
                    node=_opt_int(first.get("node")),
                    query_id=_opt_int(first.get("query_id")),
                    detail=(
                        f"frame {key[2]} retransmitted {len(retries)} times "
                        f"(MaxRetrTime = {max_retransmissions})"
                    ),
                )
            )

    report.violations.sort(key=lambda v: (v.time, v.invariant))
    return report


def _chosen_max_load(
    options: Dict[int, List[Tuple[int, int]]], assignment_doc: Dict[str, object]
) -> Optional[int]:
    """Hop-weighted max load of the traced assignment; None if unscorable."""
    loads: Dict[int, int] = {}
    for neighbor_str, chunk_ids in assignment_doc.items():
        neighbor = int(neighbor_str)
        for chunk_id in chunk_ids:  # type: ignore[union-attr]
            hops = dict(options.get(int(chunk_id), ()))
            hop = hops.get(neighbor)
            if hop is None:
                return None  # options truncated; cannot score soundly
            loads[neighbor] = loads.get(neighbor, 0) + hop
    return max(loads.values()) if loads else None


def _opt_int(value: object) -> Optional[int]:
    return int(value) if value is not None else None  # type: ignore[arg-type]


# ----------------------------------------------------------------------
def render_report(report: AuditReport, max_violations: int = 25) -> str:
    """Human-readable audit summary."""
    lines: List[str] = []
    lines.append(
        f"audit: {len(report.violations)} violation(s) over "
        f"{report.events_checked} events "
        f"({report.queries_checked} queries, "
        f"{report.responses_checked} responses, "
        f"{report.assignments_checked} assignments, "
        f"{report.rounds_checked} rounds)"
    )
    counts = report.counts()
    for invariant in INVARIANTS:
        status = counts.get(invariant, 0)
        marker = "FAIL" if status else "ok"
        lines.append(f"  {invariant:<22s} {marker:>4s} {status or ''}")
    for violation in report.violations[:max_violations]:
        lines.append(
            f"  ! t={violation.time:9.3f}s run={violation.scope[1]} "
            f"node={_fmt(violation.node)} query={_fmt(violation.query_id)} "
            f"{violation.invariant}: {violation.detail}"
        )
    if len(report.violations) > max_violations:
        lines.append(
            f"  ... {len(report.violations) - max_violations} more violation(s)"
        )
    return "\n".join(lines)


def _fmt(value: Optional[int]) -> str:
    return "-" if value is None else str(value)
