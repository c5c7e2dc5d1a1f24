"""Timeline reconstruction and rendering: ``repro inspect --timeline``.

Reads the keyframe+delta JSONL written by :mod:`repro.obs.recorder`,
scoped per ``(shard file, run id)`` exactly like trace spans, and offers:

* ``--timeline`` — per-node sparkline/table views of any recorded series;
* ``--at <t>`` — exact state reconstruction at an arbitrary sim time from
  the nearest keyframe plus the deltas up to the last sample at or before
  ``t``;
* ``--diff <t1> <t2>`` — what changed (entries added / removed /
  rewritten) between two instants.

The path argument accepts a single file, a directory, or a glob, and a
plain file automatically picks up per-worker shards next to it
(``timeline.0.jsonl``, ...) — the same resolution rules as trace files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.durable import JsonlRecords, resolve_trace_paths
from repro.obs.recorder import SEP, unflatten_state

Record = Dict[str, Any]

#: Sparkline glyphs, lowest to highest.
_SPARK = "▁▂▃▄▅▆▇█"

#: Per-node series: label -> (section path suffix, mode).  ``count`` series
#: count flat keys under the prefix; ``value`` series read one flat key.
NODE_SERIES: Dict[str, Tuple[str, str]] = {
    "lqt": ("lqt", "count"),
    "cdi": (f"cdi{SEP}size", "value"),
    "meta": (f"store{SEP}metadata", "value"),
    "chunks": (f"store{SEP}chunks", "value"),
    "bytes": (f"store{SEP}bytes", "value"),
    "sendq": (f"face{SEP}sendq", "value"),
    "radioq": (f"face{SEP}radioq", "value"),
    "retx": (f"face{SEP}retx", "value"),
}

DEFAULT_SERIES = ("lqt", "cdi", "chunks", "sendq", "retx")


class TimelineError(ReproError):
    """Raised when a timeline cannot be loaded or reconstructed."""


@dataclass
class TimelineRun:
    """One simulator's recording inside one shard file."""

    scope: Tuple[str, int]  # (shard basename, run id)
    meta: Record
    records: List[Record] = field(default_factory=list)

    @property
    def times(self) -> List[float]:
        return [float(record["t"]) for record in self.records]

    @property
    def t_min(self) -> float:
        return float(self.records[0]["t"]) if self.records else 0.0

    @property
    def t_max(self) -> float:
        return float(self.records[-1]["t"]) if self.records else 0.0


@dataclass
class TimelineLoad:
    """Every run found across the resolved shard files."""

    runs: List[TimelineRun]
    paths: List[str]
    skipped_lines: int = 0


def load_timeline(path: str) -> TimelineLoad:
    """Load and scope the timeline file(s) named by ``path``.

    Non-timeline lines (e.g. trace events sharing a directory) and
    unparseable lines are skipped and counted.  Records are ordered by
    sample sequence number within each ``(shard, run)`` scope.
    """
    paths = resolve_trace_paths(path)
    records = JsonlRecords(paths)
    runs: Dict[Tuple[str, int], TimelineRun] = {}
    skipped = 0
    for shard, record in records:
        kind = record.get("rec")
        if kind not in ("meta", "key", "delta"):
            skipped += 1
            continue
        scope = (shard, int(record.get("run", 0)))
        run = runs.get(scope)
        if run is None:
            run = runs[scope] = TimelineRun(scope=scope, meta={})
        if kind == "meta":
            run.meta = record
        else:
            run.records.append(record)
    for run in runs.values():
        run.records.sort(key=lambda record: int(record.get("seq", 0)))
    ordered = [runs[scope] for scope in sorted(runs)]
    return TimelineLoad(
        runs=ordered, paths=paths, skipped_lines=skipped + records.skipped
    )


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------
def _apply(flat: Dict[str, Any], record: Record) -> Dict[str, Any]:
    if record["rec"] == "key":
        return dict(record["state"])
    flat.update(record.get("set", {}))
    for key in record.get("del", ()):
        flat.pop(key, None)
    return flat


def reconstruct_at(run: TimelineRun, t: float) -> Tuple[float, int, Dict[str, Any]]:
    """Exact flat state at the last sample with time ``<= t``.

    Returns ``(sample_time, seq, flat_state)``.  Walks back from the
    target sample to its governing keyframe, then replays deltas forward.

    Raises:
        TimelineError: when ``t`` precedes the run's first sample or the
            governing keyframe is missing (truncated shard).
    """
    if not run.records:
        raise TimelineError(
            f"run {run.scope[0]}:{run.scope[1]} has no samples"
        )
    target = -1
    for index, record in enumerate(run.records):
        if float(record["t"]) <= t:
            target = index
        else:
            break
    if target < 0:
        raise TimelineError(
            f"t={t:g} is before the first sample "
            f"(t={run.t_min:g}) of run {run.scope[0]}:{run.scope[1]}"
        )
    key_index = target
    while key_index >= 0 and run.records[key_index]["rec"] != "key":
        key_index -= 1
    if key_index < 0:
        raise TimelineError(
            f"run {run.scope[0]}:{run.scope[1]} has no keyframe at or "
            f"before t={t:g} (truncated timeline?)"
        )
    flat: Dict[str, Any] = {}
    for record in run.records[key_index : target + 1]:
        flat = _apply(flat, record)
    chosen = run.records[target]
    return float(chosen["t"]), int(chosen["seq"]), flat


def state_at(run: TimelineRun, t: float) -> Dict[str, Any]:
    """Nested reconstructed state at ``t`` (convenience wrapper)."""
    _, _, flat = reconstruct_at(run, t)
    return unflatten_state(flat)


def iterate_states(run: TimelineRun):
    """Yield ``(t, seq, flat_state)`` for every sample, in one pass.

    The yielded dict is reused between iterations — copy it if kept.
    """
    flat: Dict[str, Any] = {}
    for record in run.records:
        flat = _apply(flat, record)
        yield float(record["t"]), int(record.get("seq", 0)), flat


def diff_between(
    run: TimelineRun, t1: float, t2: float
) -> Dict[str, Dict[str, Any]]:
    """Flat-key diff of the reconstructed states at ``t1`` and ``t2``.

    Returns ``{"added": {key: new}, "removed": {key: old},
    "changed": {key: (old, new)}}``.
    """
    _, _, before = reconstruct_at(run, t1)
    _, _, after = reconstruct_at(run, t2)
    added = {key: value for key, value in after.items() if key not in before}
    removed = {key: value for key, value in before.items() if key not in after}
    changed = {
        key: (before[key], value)
        for key, value in after.items()
        if key in before and before[key] != value
    }
    return {"added": added, "removed": removed, "changed": changed}


# ----------------------------------------------------------------------
# Series extraction + sparklines
# ----------------------------------------------------------------------
def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a numeric series as a fixed-width unicode sparkline.

    Longer series are downsampled by taking each bucket's maximum (spikes
    must stay visible in a flight recorder).
    """
    if not values:
        return ""
    if len(values) > width:
        bucketed: List[float] = []
        for index in range(width):
            lo = index * len(values) // width
            hi = max(lo + 1, (index + 1) * len(values) // width)
            bucketed.append(max(values[lo:hi]))
        values = bucketed
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _SPARK[0] * len(values)
    top = len(_SPARK) - 1
    return "".join(
        _SPARK[min(top, int((value - low) / span * top + 0.5))] for value in values
    )


def node_series(run: TimelineRun, name: str) -> Dict[str, List[float]]:
    """Per-node value list (one entry per sample) for a named series.

    Nodes absent at a sample (not yet joined, or left) contribute 0.
    """
    if name not in NODE_SERIES:
        raise TimelineError(
            f"unknown series {name!r}; available: {', '.join(sorted(NODE_SERIES))}"
        )
    suffix, mode = NODE_SERIES[name]
    series: Dict[str, List[float]] = {}
    sample_index = 0
    for _, _, flat in iterate_states(run):
        per_node: Dict[str, float] = {}
        if mode == "count":
            probe = f"{SEP}{suffix}{SEP}"
            for key in flat:
                if key.startswith("nodes") and probe in key:
                    node = key.split(SEP, 2)[1]
                    per_node[node] = per_node.get(node, 0.0) + 1.0
        else:
            tail = f"{SEP}{suffix}"
            for key, value in flat.items():
                if key.startswith("nodes") and key.endswith(tail):
                    node = key.split(SEP, 2)[1]
                    if key == f"nodes{SEP}{node}{SEP}{suffix}":
                        per_node[node] = float(value)
        for node in per_node:
            if node not in series:
                series[node] = [0.0] * sample_index
        for node, values in series.items():
            values.append(per_node.get(node, 0.0))
        sample_index += 1
    return series


def net_series(run: TimelineRun) -> Dict[str, List[float]]:
    """Network-wide series: active transmissions, utilization, degree."""
    active: List[float] = []
    util: List[float] = []
    degree_mean: List[float] = []
    prev_t: Optional[float] = None
    prev_airtime = 0.0
    for t, _, flat in iterate_states(run):
        active.append(float(flat.get(f"net{SEP}active_tx", 0.0)))
        airtime = float(flat.get(f"net{SEP}airtime_s", 0.0))
        if prev_t is not None and t > prev_t:
            util.append((airtime - prev_airtime) / (t - prev_t))
        else:
            util.append(0.0)
        prev_t, prev_airtime = t, airtime
        total = 0.0
        count = 0.0
        probe = f"net{SEP}degree{SEP}"
        for key, value in flat.items():
            if key.startswith(probe):
                deg = float(key[len(probe) :])
                total += deg * float(value)
                count += float(value)
        degree_mean.append(total / count if count else 0.0)
    return {"active_tx": active, "airtime_util": util, "degree_mean": degree_mean}


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _run_header(run: TimelineRun) -> str:
    meta = run.meta
    bits = [
        f"timeline run {run.scope[0]}:{run.scope[1]}:",
        f"{len(run.records)} samples,",
        f"t = {run.t_min:.3f}s .. {run.t_max:.3f}s",
    ]
    if meta:
        bits.append(
            f"(interval {meta.get('interval', '?')}s, "
            f"keyframe every {meta.get('keyframe_every', '?')})"
        )
    return " ".join(bits)


def render_timeline(
    load: TimelineLoad,
    series: Sequence[str] = DEFAULT_SERIES,
    top_nodes: int = 10,
) -> str:
    """Sparkline/table views of the requested series, one block per run."""
    if not load.runs:
        return "timeline: empty (no samples)"
    blocks: List[str] = []
    for run in load.runs:
        lines = [_run_header(run)]
        lines.append("net:")
        for name, values in net_series(run).items():
            if not values:
                continue
            lines.append(
                f"  {name:<12s} {sparkline(values)}  "
                f"min {min(values):g} max {max(values):g} last {values[-1]:g}"
            )
        for name in series:
            per_node = node_series(run, name)
            if not per_node:
                continue
            lines.append(f"series {name} (top {top_nodes} nodes by peak):")
            ranked = sorted(
                per_node.items(), key=lambda item: (-max(item[1]), item[0])
            )[:top_nodes]
            for node, values in ranked:
                lines.append(
                    f"  node {node:<6s} {sparkline(values)}  "
                    f"min {min(values):g} max {max(values):g} last {values[-1]:g}"
                )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_at(load: TimelineLoad, t: float) -> str:
    """Per-node state tables reconstructed at ``t``, one block per run."""
    if not load.runs:
        return "timeline: empty (no samples)"
    blocks: List[str] = []
    for run in load.runs:
        sample_t, seq, flat = reconstruct_at(run, t)
        nested = unflatten_state(flat)
        lines = [_run_header(run)]
        lines.append(
            f"state at t={t:g} (sample seq {seq} taken at t={sample_t:.3f}s):"
        )
        net = nested.get("net", {})
        lines.append(
            f"  net: active_tx={_fmt(net.get('active_tx', 0))} "
            f"airtime_s={_fmt(net.get('airtime_s', 0.0))} "
            f"nodes={_fmt(net.get('nodes', 0))}"
        )
        header = (
            f"  {'node':<6s} {'lqt':>5s} {'cdi':>5s} {'meta':>6s} "
            f"{'chunks':>6s} {'sendq':>6s} {'retx':>5s}"
        )
        lines.append(header)
        nodes = nested.get("nodes", {})
        for node in sorted(nodes, key=lambda n: (len(n), n)):
            state = nodes[node]
            lqt_total = sum(
                len(table)
                for table in state.get("lqt", {}).values()
                if isinstance(table, dict)
            )
            store = state.get("store", {})
            face = state.get("face", {})
            lines.append(
                f"  {node:<6s} {lqt_total:>5d} "
                f"{_fmt(state.get('cdi', {}).get('size', 0)):>5s} "
                f"{_fmt(store.get('metadata', 0)):>6s} "
                f"{_fmt(store.get('chunks', 0)):>6s} "
                f"{_fmt(face.get('sendq', 0)):>6s} "
                f"{_fmt(face.get('retx', 0)):>5s}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _display_key(key: str) -> str:
    return key.replace(SEP, ".")


def render_diff(load: TimelineLoad, t1: float, t2: float, limit: int = 40) -> str:
    """What changed between two instants, one block per run."""
    if not load.runs:
        return "timeline: empty (no samples)"
    blocks: List[str] = []
    for run in load.runs:
        diff = diff_between(run, t1, t2)
        lines = [_run_header(run)]
        lines.append(
            f"diff t1={t1:g} -> t2={t2:g}: "
            f"{len(diff['added'])} added, {len(diff['removed'])} removed, "
            f"{len(diff['changed'])} rewritten"
        )
        shown = 0
        for key in sorted(diff["added"]):
            if shown >= limit:
                break
            lines.append(f"  + {_display_key(key)} = {_fmt(diff['added'][key])}")
            shown += 1
        for key in sorted(diff["removed"]):
            if shown >= limit:
                break
            lines.append(f"  - {_display_key(key)} (was {_fmt(diff['removed'][key])})")
            shown += 1
        for key in sorted(diff["changed"]):
            if shown >= limit:
                break
            old, new = diff["changed"][key]
            lines.append(f"  ~ {_display_key(key)}: {_fmt(old)} -> {_fmt(new)}")
            shown += 1
        total = sum(len(part) for part in diff.values())
        if total > shown:
            lines.append(f"  ... and {total - shown} more")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
def inspect_timeline(
    path: str,
    timeline: bool = False,
    at: Optional[float] = None,
    diff: Optional[Sequence[float]] = None,
    series: Optional[Sequence[str]] = None,
    top_nodes: int = 10,
    as_json: bool = False,
) -> Tuple[int, str]:
    """Timeline inspection entry point: ``(exit_code, report_text)``.

    Exit code 2 when reconstruction fails (missing keyframe, ``t`` out of
    range) so CI can gate on ``repro inspect timeline.jsonl --at <t>``.
    """
    load = load_timeline(path)
    sections: List[str] = []
    doc: Dict[str, Any] = {
        "paths": load.paths,
        "skipped_lines": load.skipped_lines,
        "runs": [
            {
                "shard": run.scope[0],
                "run": run.scope[1],
                "samples": len(run.records),
                "t_min": run.t_min,
                "t_max": run.t_max,
            }
            for run in load.runs
        ],
    }
    try:
        if at is not None:
            if as_json:
                doc["at"] = {
                    f"{run.scope[0]}:{run.scope[1]}": state_at(run, at)
                    for run in load.runs
                }
            else:
                sections.append(render_at(load, at))
        if diff:
            t1, t2 = float(diff[0]), float(diff[1])
            if as_json:
                doc["diff"] = {
                    f"{run.scope[0]}:{run.scope[1]}": {
                        part: (
                            {
                                _display_key(k): list(v)
                                if isinstance(v, tuple)
                                else v
                                for k, v in entries.items()
                            }
                        )
                        for part, entries in diff_between(run, t1, t2).items()
                    }
                    for run in load.runs
                }
            else:
                sections.append(render_diff(load, t1, t2))
        if timeline or (at is None and not diff):
            if as_json:
                doc["series"] = {
                    f"{run.scope[0]}:{run.scope[1]}": {
                        "net": net_series(run),
                        **{
                            name: node_series(run, name)
                            for name in (series or DEFAULT_SERIES)
                        },
                    }
                    for run in load.runs
                }
            else:
                sections.append(
                    render_timeline(
                        load, series=series or DEFAULT_SERIES, top_nodes=top_nodes
                    )
                )
    except TimelineError as error:
        return 2, f"timeline error: {error}"
    if as_json:
        return 0, json.dumps(doc, indent=2, sort_keys=True, default=str)
    if load.skipped_lines or len(load.paths) > 1:
        sections.append(
            f"loader: {len(load.paths)} shard file(s), "
            f"{load.skipped_lines} non-timeline/unparseable line(s) skipped"
        )
    return 0, "\n\n".join(sections)
