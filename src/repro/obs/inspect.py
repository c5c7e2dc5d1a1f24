"""Trace-file inspection: ``python -m repro inspect out.jsonl``.

Reads the JSONL event stream written by :class:`repro.obs.trace.JsonlSink`
and prints what the protocol actually did: events per kind, the busiest
nodes, on-air frame/byte accounting per message kind (which reconstructs
the paper's message-overhead metric), and loss/retransmission tallies.

The path may also be a directory or a glob — parallel campaigns shard the
trace into per-worker files (``trace.0.jsonl``, ...) which are merged by
timestamp.  ``--spans`` reconstructs per-query span trees
(:mod:`repro.obs.spans`); ``--audit`` checks the causal invariants of
:mod:`repro.obs.audit` and fails the process when any is violated.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.audit import audit_events, render_report
from repro.obs.spans import (
    ScopeKey,
    build_spans,
    load_trace,
    render_spans,
    scope_of,
)

Event = Dict[str, object]


def summarize(events: Sequence[Event]) -> Dict[str, object]:
    """Aggregate a trace into plain-dict summaries.

    Returns a dict with:
        ``total`` — event count;
        ``runs`` — event counts and time spans per ``(shard, run)``
        scope (:func:`repro.obs.spans.scope_of`: run ids restart in
        every worker shard);
        ``by_kind`` — events per event kind;
        ``by_node`` — events per node id;
        ``frames`` — per frame-kind ``{"frames": n, "bytes": n}`` from
        ``frame_sent`` events (sums to ``NetworkStats.bytes_sent``);
        ``resends`` — per frame-kind first sends and retransmissions
        (``frame_sent``'s ``retx``: frames and bytes of each) and
        ``frame_delivered`` receptions, of which ``duplicates`` repeat a
        ``(scope, node, frame_id)`` already delivered (frame ids restart
        per run);
        ``losses`` — ``frame_lost`` events per reason;
        ``retransmits`` / ``abandons`` — reliability-layer tallies.
    """
    by_kind: Counter = Counter()
    by_node: Counter = Counter()
    losses: Counter = Counter()
    frames: Dict[str, Dict[str, int]] = {}
    resends: Dict[str, Dict[str, int]] = {}
    delivered = set()
    runs: Dict[ScopeKey, Dict[str, object]] = {}
    retransmits = 0
    abandons = 0
    for event in events:
        kind = str(event.get("kind", "?"))
        by_kind[kind] += 1
        node = event.get("node")
        if node is not None:
            by_node[node] += 1
        time = float(event.get("t", 0.0))
        span = runs.setdefault(
            scope_of(event), {"events": 0, "t_min": time, "t_max": time}
        )
        span["events"] = int(span["events"]) + 1
        span["t_min"] = min(float(span["t_min"]), time)
        span["t_max"] = max(float(span["t_max"]), time)
        if kind == "frame_sent":
            frame_kind = str(event.get("frame_kind", "data"))
            size = int(event.get("size", 0))
            bucket = frames.setdefault(frame_kind, {"frames": 0, "bytes": 0})
            bucket["frames"] += 1
            bucket["bytes"] += size
            split = _resend_bucket(resends, frame_kind)
            sent = "retx" if event.get("retx") else "first"
            split[f"{sent}_frames"] += 1
            split[f"{sent}_bytes"] += size
        elif kind == "frame_delivered":
            split = _resend_bucket(resends, str(event.get("frame_kind", "data")))
            split["receptions"] += 1
            reception = (scope_of(event), node, event.get("frame_id"))
            if reception in delivered:
                split["duplicates"] += 1
            else:
                delivered.add(reception)
        elif kind == "frame_lost":
            losses[str(event.get("reason", "?"))] += 1
        elif kind == "retransmit":
            retransmits += 1
        elif kind == "abandon":
            abandons += 1
    return {
        "total": len(events),
        "runs": runs,
        "by_kind": dict(by_kind),
        "by_node": dict(by_node),
        "frames": frames,
        "resends": resends,
        "losses": dict(losses),
        "retransmits": retransmits,
        "abandons": abandons,
    }


def _resend_bucket(resends: Dict[str, Dict[str, int]], frame_kind: str) -> Dict[str, int]:
    bucket = resends.get(frame_kind)
    if bucket is None:
        bucket = resends[frame_kind] = dict.fromkeys(
            ("first_frames", "first_bytes", "retx_frames", "retx_bytes",
             "receptions", "duplicates"),
            0,
        )
    return bucket


def render(events: Sequence[Event], top_nodes: int = 10) -> str:
    """Human-readable inspection report for a trace."""
    if not events:
        return "trace: empty (no events)"
    summary = summarize(events)
    lines: List[str] = []
    runs = summary["runs"]
    lines.append(
        f"trace: {summary['total']} events across {len(runs)} simulation run(s)"
    )
    one_shard = len({shard for shard, _ in runs}) == 1
    for shard, run_id in sorted(runs):
        span = runs[(shard, run_id)]
        name = f"run {run_id}" if one_shard else f"{shard} run {run_id}"
        lines.append(
            f"  {name}: {span['events']} events, "
            f"t = {span['t_min']:.3f}s .. {span['t_max']:.3f}s"
        )

    lines.append("")
    lines.append("events by kind:")
    by_kind = summary["by_kind"]
    for kind in sorted(by_kind, key=lambda k: (-by_kind[k], k)):
        lines.append(f"  {kind:<20s} {by_kind[kind]:>10d}")

    frames = summary["frames"]
    if frames:
        lines.append("")
        lines.append("on-air frames by message kind:")
        total_frames = 0
        total_bytes = 0
        for frame_kind in sorted(frames, key=lambda k: -frames[k]["bytes"]):
            bucket = frames[frame_kind]
            total_frames += bucket["frames"]
            total_bytes += bucket["bytes"]
            lines.append(
                f"  {frame_kind:<20s} {bucket['frames']:>8d} frames "
                f"{bucket['bytes']:>12d} bytes"
            )
        lines.append(
            f"  {'TOTAL':<20s} {total_frames:>8d} frames {total_bytes:>12d} bytes"
        )

    resends = summary["resends"]
    if resends:
        lines.append("")
        lines.append("first sends, retransmissions and duplicate receptions by message kind:")
        lines.append(
            f"  {'kind':<12s} {'first':>8s} {'first_bytes':>12s} {'retx':>8s} "
            f"{'retx_bytes':>12s} {'received':>10s} {'duplicates':>10s}"
        )
        for frame_kind in sorted(resends):
            split = resends[frame_kind]
            lines.append(
                f"  {frame_kind:<12s} {split['first_frames']:>8d} "
                f"{split['first_bytes']:>12d} {split['retx_frames']:>8d} "
                f"{split['retx_bytes']:>12d} {split['receptions']:>10d} "
                f"{split['duplicates']:>10d}"
            )

    losses = summary["losses"]
    if losses or summary["retransmits"] or summary["abandons"]:
        lines.append("")
        lines.append("reliability:")
        for reason in sorted(losses):
            lines.append(f"  lost ({reason}): {losses[reason]}")
        lines.append(f"  retransmissions: {summary['retransmits']}")
        lines.append(f"  abandoned frames: {summary['abandons']}")

    by_node = summary["by_node"]
    if by_node:
        lines.append("")
        lines.append(f"busiest nodes (top {top_nodes}):")
        ranked = sorted(by_node, key=lambda n: (-by_node[n], n))[:top_nodes]
        for node in ranked:
            lines.append(f"  node {node:<6} {by_node[node]:>10d} events")
    return "\n".join(lines)


def inspect_file(path: str, top_nodes: int = 10) -> str:
    """Load ``path`` (file, directory or glob) and render its report."""
    return inspect_path(path, top_nodes=top_nodes)[1]


def inspect_path(
    path: str,
    top_nodes: int = 10,
    spans: bool = False,
    audit: bool = False,
    as_json: bool = False,
) -> Tuple[int, str]:
    """Full inspection entry point: ``(exit_code, report_text)``.

    The exit code is nonzero only when ``audit`` is requested and at
    least one invariant is violated, so CI can gate on a traced run with
    ``python -m repro inspect trace.jsonl --audit``.
    """
    load = load_trace(path)
    report = audit_events(load.events) if audit else None

    if as_json:
        summary = summarize(load.events)
        summary["runs"] = [
            {"shard": shard, "run": run, **span}
            for (shard, run), span in sorted(summary["runs"].items())
        ]
        doc: Dict[str, object] = {
            "paths": load.paths,
            "skipped_lines": load.skipped_lines,
            "duplicates_dropped": load.duplicates_dropped,
            "summary": summary,
        }
        if spans:
            forest = build_spans(load.events)
            doc["spans"] = {
                "total": len(forest.queries),
                "roots": len(forest.roots()),
                "orphan_events": len(forest.orphans),
                "by_proto": dict(
                    Counter(span.proto for span in forest.queries)
                ),
                "queries": [
                    {
                        "query_id": span.query_id,
                        "shard": span.scope[0],
                        "run": span.scope[1],
                        "proto": span.proto,
                        "round": span.round,
                        "consumer": span.consumer,
                        "start": span.start,
                        "end": span.end,
                        "events": len(span.events),
                        "tree_size": span.tree_size(),
                    }
                    for span in forest.roots()
                ],
            }
        if report is not None:
            doc["audit"] = report.to_json_dict()
        code = 1 if report is not None and not report.ok else 0
        return code, json.dumps(doc, indent=2, sort_keys=True, default=str)

    sections = [render(load.events, top_nodes=top_nodes)]
    if len(load.paths) > 1 or load.skipped_lines or load.duplicates_dropped:
        sections.append(
            f"loader: {len(load.paths)} shard file(s), "
            f"{load.skipped_lines} unparseable line(s) skipped, "
            f"{load.duplicates_dropped} duplicate line(s) dropped"
        )
    if spans:
        sections.append(render_spans(build_spans(load.events)))
    if report is not None:
        sections.append(render_report(report))
    code = 1 if report is not None and not report.ok else 0
    return code, "\n\n".join(sections)
