"""Offline span reconstruction from correlation-stamped traces.

The protocol layers stamp every trace event with whichever correlation
keys apply (``query_id``, ``response_id``, ``round``, ``chunk_id``,
``consumer``, ``hop`` — see :mod:`repro.obs.trace`).  This module folds a
possibly *sharded* JSONL trace back into typed span trees:

* a :class:`QuerySpan` per issued query (PDD / CDI / MDR) collecting its
  forwards, Bloom prunes, responses and lingering-table life cycle into a
  per-query discovery timeline;
* a :class:`QuerySpan` per chunk request carrying the recursive division
  tree (``root``/``parent`` ids stamped by
  :meth:`repro.core.messages.ChunkQuery.divided`) as ``children``.

Sharding realities the loader absorbs:

* ``--jobs N`` campaigns write per-worker shards ``trace.0.jsonl``,
  ``trace.1.jsonl``, ... next to the requested path — the loader accepts
  a single file, a directory, or a glob and merges events by timestamp;
* message ids and run ids come from per-process counters that forked
  workers inherit, so ids collide *across* shards — spans are therefore
  scoped per ``(shard, run)`` and never merged across that boundary;
* a worker killed mid-write leaves a truncated final line — skipped and
  counted, never fatal;
* retry-once crash isolation can replay a trial, duplicating its events —
  exact duplicate lines within one shard are dropped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.durable import JsonlRecords, resolve_trace_paths

Event = Dict[str, object]

#: Scope inside which message/run ids are unique: (shard label, run id).
ScopeKey = Tuple[str, int]

#: Event kinds that reference the governing query via ``query_id``.
_QUERY_EVENT_KINDS = (
    "query_forwarded",
    "bloom_prune",
    "response_sent",
    "chunk_served",
    "lqt_linger",
    "lqt_expire",
    "chunk_assignment",
    "frame_sent",
    "frame_delivered",
    "frame_lost",
    "frame_dropped",
    "retransmit",
    "abandon",
)


# ----------------------------------------------------------------------
# Loading (single file, directory, glob; shard-aware — see repro.obs.durable)
# ----------------------------------------------------------------------
@dataclass
class TraceLoad:
    """A merged, shard-tagged event stream plus loader diagnostics."""

    events: List[Event]
    paths: List[str]
    skipped_lines: int = 0
    duplicates_dropped: int = 0


def load_trace(path: str) -> TraceLoad:
    """Load and merge the trace file(s) named by ``path``.

    Every event gains a ``shard`` field (the source file's basename) so
    downstream grouping can scope colliding run/message ids.  Events are
    merged across shards in timestamp order (stable: ties keep each
    shard's original write order).  Unparseable lines are skipped and
    counted; exact duplicate lines within one shard are dropped.
    """
    paths = resolve_trace_paths(path)
    records = JsonlRecords(paths, dedupe=True)
    events: List[Event] = []
    for shard, event in records:
        event["shard"] = shard
        events.append(event)
    events.sort(key=lambda e: float(e.get("t", 0.0)))
    return TraceLoad(
        events=events,
        paths=paths,
        skipped_lines=records.skipped,
        duplicates_dropped=records.duplicates,
    )


def scope_of(event: Event) -> ScopeKey:
    """The ``(shard, run)`` scope an event's ids are unique within."""
    return (str(event.get("shard", "")), int(event.get("run", 0)))


# ----------------------------------------------------------------------
# Span model
# ----------------------------------------------------------------------
@dataclass
class QuerySpan:
    """One query's reconstructed causal timeline.

    For chunk queries, ``children`` holds the sub-queries the recursive
    division minted (``parent``/``root`` stamped on ``chunk_request``
    events); for discovery/CDI/MDR queries it stays empty.
    """

    scope: ScopeKey
    query_id: int
    proto: str
    consumer: Optional[int] = None
    round: Optional[int] = None
    issued_at: Optional[float] = None
    expires_at: Optional[float] = None
    item: Optional[str] = None
    root_id: Optional[int] = None
    parent_id: Optional[int] = None
    events: List[Event] = field(default_factory=list)
    children: List["QuerySpan"] = field(default_factory=list)

    @property
    def start(self) -> float:
        if self.issued_at is not None:
            return self.issued_at
        return min((float(e["t"]) for e in self.events), default=0.0)

    @property
    def end(self) -> float:
        return max((float(e["t"]) for e in self.events), default=self.start)

    def count(self, kind: str) -> int:
        """How many attached events are of ``kind``."""
        return sum(1 for e in self.events if e.get("kind") == kind)

    def tree_size(self) -> int:
        """Spans in this division tree (this span + all descendants)."""
        return 1 + sum(child.tree_size() for child in self.children)

    def walk(self) -> List["QuerySpan"]:
        """This span followed by its descendants, depth-first."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes


@dataclass
class SpanForest:
    """All span trees of a trace, plus events nothing claimed."""

    queries: List[QuerySpan]
    orphans: List[Event]

    def roots(self) -> List[QuerySpan]:
        """Spans that are not a child of another span."""
        return [s for s in self.queries if s.parent_id is None]

    def by_proto(self, proto: str) -> List[QuerySpan]:
        return [s for s in self.queries if s.proto == proto]


def build_spans(events: Sequence[Event]) -> SpanForest:
    """Fold a (shard-tagged) event stream into per-query span trees.

    Two passes: the first creates a :class:`QuerySpan` for every
    ``query_issued`` and ``chunk_request`` event; the second attaches all
    correlated events — so out-of-order shard interleavings (an event
    timestamped before its query's issue record lands first after the
    merge) cannot orphan events that do have a span.
    """
    spans: Dict[Tuple[str, int, int], QuerySpan] = {}
    orphans: List[Event] = []

    for event in events:
        kind = event.get("kind")
        if kind == "query_issued":
            scope = scope_of(event)
            query_id = int(event["query_id"])
            span = spans.get(scope + (query_id,))
            if span is None:
                span = QuerySpan(
                    scope=scope, query_id=query_id, proto=str(event.get("proto", "?"))
                )
                spans[scope + (query_id,)] = span
            span.proto = str(event.get("proto", span.proto))
            span.consumer = _opt_int(event.get("consumer"), span.consumer)
            span.round = _opt_int(event.get("round"), span.round)
            span.issued_at = float(event["t"])
            span.expires_at = _opt_float(event.get("expires_at"), span.expires_at)
            span.item = event.get("item", span.item)  # type: ignore[assignment]
        elif kind == "chunk_request":
            scope = scope_of(event)
            query_id = int(event["query_id"])
            span = spans.get(scope + (query_id,))
            if span is None:
                span = QuerySpan(scope=scope, query_id=query_id, proto="chunk")
                spans[scope + (query_id,)] = span
            span.proto = "chunk"
            span.consumer = _opt_int(event.get("consumer"), span.consumer)
            span.issued_at = float(event["t"])
            span.expires_at = _opt_float(event.get("expires_at"), span.expires_at)
            span.item = event.get("item", span.item)  # type: ignore[assignment]
            span.root_id = _opt_int(event.get("root"), span.root_id)
            span.parent_id = _opt_int(event.get("parent"), span.parent_id)

    for event in events:
        kind = event.get("kind")
        scope = scope_of(event)
        if kind in ("query_issued", "chunk_request"):
            spans[scope + (int(event["query_id"]),)].events.append(event)
            continue
        attached = False
        query_id = event.get("query_id")
        if query_id is not None:
            span = spans.get(scope + (int(query_id),))
            if span is not None:
                span.events.append(event)
                attached = True
        for qid in event.get("query_ids") or ():
            span = spans.get(scope + (int(qid),))
            if span is not None and event not in span.events[-1:]:
                span.events.append(event)
                attached = True
        if not attached:
            orphans.append(event)

    # Link chunk division trees by the stamped parent ids.
    for span in spans.values():
        if span.parent_id is None:
            continue
        parent = spans.get(span.scope + (span.parent_id,))
        if parent is not None:
            parent.children.append(span)
        else:
            span.parent_id = None  # parent's shard lost: promote to root

    ordered = sorted(spans.values(), key=lambda s: (s.start, s.query_id))
    for span in ordered:
        span.events.sort(key=lambda e: float(e.get("t", 0.0)))
        span.children.sort(key=lambda s: (s.start, s.query_id))
    return SpanForest(queries=ordered, orphans=orphans)


def _opt_int(value: object, default: Optional[int]) -> Optional[int]:
    return int(value) if value is not None else default  # type: ignore[arg-type]


def _opt_float(value: object, default: Optional[float]) -> Optional[float]:
    return float(value) if value is not None else default  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_spans(
    forest: SpanForest, waterfalls: int = 3, max_rows: int = 40
) -> str:
    """Span summary table plus per-query waterfalls for the busiest trees."""
    roots = forest.roots()
    if not roots:
        return "spans: none (no query_issued/chunk_request events in trace)"
    lines: List[str] = []
    lines.append(
        f"spans: {len(forest.queries)} across {len(roots)} root(s); "
        f"{len(forest.orphans)} uncorrelated event(s)"
    )
    lines.append("")
    header = (
        f"  {'query':>8s} {'proto':<6s} {'round':>5s} {'consumer':>8s} "
        f"{'t_start':>9s} {'dur_s':>8s} {'events':>6s} {'tree':>4s}"
    )
    lines.append(header)
    for span in roots[:max_rows]:
        lines.append(
            f"  {span.query_id:>8d} {span.proto:<6s} "
            f"{_fmt_opt(span.round):>5s} {_fmt_opt(span.consumer):>8s} "
            f"{span.start:>9.3f} {span.end - span.start:>8.3f} "
            f"{len(span.events):>6d} {span.tree_size():>4d}"
        )
    if len(roots) > max_rows:
        lines.append(f"  ... {len(roots) - max_rows} more root span(s)")

    busiest = sorted(
        roots, key=lambda s: (-sum(len(n.events) for n in s.walk()), s.query_id)
    )[:waterfalls]
    for span in busiest:
        lines.append("")
        lines.extend(render_waterfall(span))
    return "\n".join(lines)


def render_waterfall(span: QuerySpan, max_events: int = 30) -> List[str]:
    """One query's timeline, offsets relative to its issue time."""
    start = span.start
    title = f"query {span.query_id} ({span.proto}"
    if span.round is not None:
        title += f", round {span.round}"
    if span.consumer is not None:
        title += f", consumer {span.consumer}"
    title += f") — t={start:.3f}s"
    if span.expires_at is not None:
        title += f", expires +{span.expires_at - start:.3f}s"
    lines = [title]
    shown = 0
    for node in span.walk():
        prefix = "  " if node is span else "    "
        if node is not span:
            lines.append(
                f"  └ sub-query {node.query_id} "
                f"({len(node.events)} events)"
            )
        for event in node.events:
            if shown >= max_events:
                lines.append(f"{prefix}... (truncated)")
                return lines
            shown += 1
            lines.append(
                f"{prefix}+{float(event['t']) - start:7.3f}s  "
                f"{str(event.get('kind')):<18s} {_event_detail(event)}"
            )
    return lines


def _event_detail(event: Event) -> str:
    parts = []
    if event.get("node") is not None:
        parts.append(f"node {event['node']}")
    for key in ("hop", "hits", "misses", "entries", "payloads", "pairs",
                "served", "chunks", "neighbor", "retx", "reason", "size"):
        if event.get(key) not in (None, "", []):
            parts.append(f"{key}={event[key]}")
    return " ".join(parts)


def _fmt_opt(value: Optional[int]) -> str:
    return "-" if value is None else str(value)
