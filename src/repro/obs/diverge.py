"""First-divergence bisection between two fingerprinted executions.

``repro diverge`` answers the question every whole-run digest gate leaves
open: two runs disagree — *at which event*?  Each **side** of the
comparison is either

* a configuration to execute (``jobs=`` worker count, ``perturb=`` an
  injected ``REPRO_RNG_PERTURB`` draw flip), run here on the canonical
  PDD scenario under a fingerprint; or
* a pre-recorded fingerprint checkpoint file (``file=...``) from any
  earlier run — e.g. a baseline built from another git revision.

The chained-digest property does the heavy lifting: checkpoints agree on
every index before the first divergent event and disagree on every index
after it, so :func:`bisect_checkpoints` binary-searches the common
checkpoint indices and finds the bracketing window in ``O(log
total-events)`` digest comparisons (the ``comparisons`` field reports the
exact count).  Executable sides are then re-run with a *detail window*
over that bracket to pin the first divergent event ``(time, seq,
handler)`` exactly, with the N preceding events from both streams for
context; an RNG draw ledger taken alongside each serial side names the
first draw site whose consumption count differs — the usual root cause.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.config import ObsConfig
from repro.obs.fingerprint import FingerprintLoad, FingerprintRun, load_fingerprints
from repro.sim.rng import diff_ledgers, rng_ledger

#: Default checkpoint cadence for diverge runs: dense enough that the
#: detail window (one checkpoint interval plus context) stays small.
DEFAULT_CHECKPOINT_EVERY = 256

#: Events of context shown before the first divergent event.
DEFAULT_CONTEXT = 5


# ----------------------------------------------------------------------
# Side / scenario specs
# ----------------------------------------------------------------------
@dataclass
class SideSpec:
    """One side of the comparison: a config to run, or a recorded file.

    Parsed from a comma-separated ``key=value`` string
    (:meth:`parse`), e.g. ``"jobs=8"``, ``"perturb=medium:40,jobs=2"``,
    or ``"file=fp_base.jsonl"``.
    """

    label: str
    jobs: int = 1
    perturb: Optional[str] = None
    file: Optional[str] = None

    _KEYS = ("jobs", "perturb", "file")

    @classmethod
    def parse(cls, label: str, raw: str) -> "SideSpec":
        spec = cls(label=label)
        raw = raw.strip()
        if not raw:
            return spec
        for part in raw.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or key not in cls._KEYS:
                raise ConfigurationError(
                    f"side {label}: expected comma-separated "
                    f"{'/'.join(cls._KEYS)}=... pairs, got {part!r}"
                )
            if key == "jobs":
                try:
                    spec.jobs = int(value)
                except ValueError:
                    raise ConfigurationError(
                        f"side {label}: jobs must be an integer, got {value!r}"
                    ) from None
                if spec.jobs < 1:
                    raise ConfigurationError(
                        f"side {label}: jobs must be >= 1, got {value!r}"
                    )
            else:
                setattr(spec, key, value)
        if spec.file is not None and (spec.perturb or spec.jobs != 1):
            raise ConfigurationError(
                f"side {label}: file= is a recorded checkpoint stream; it "
                f"cannot be combined with run options"
            )
        return spec

    def describe(self) -> str:
        if self.file is not None:
            return f"file={self.file}"
        parts = [f"jobs={self.jobs}"]
        if self.perturb:
            parts.append(f"perturb={self.perturb}")
        return ",".join(parts)


@dataclass
class ScenarioSpec:
    """The canonical scenario both executable sides run.

    A reduced grid PDD discovery (the engine's representative workload):
    identical on both sides by construction, so any fingerprint
    divergence is attributable to the *configuration* difference.
    """

    seeds: Tuple[int, ...] = (1,)
    rows: int = 6
    cols: int = 6
    metadata_count: int = 400
    max_rounds: int = 3
    sim_cap_s: float = 120.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seeds": list(self.seeds),
            "rows": self.rows,
            "cols": self.cols,
            "metadata_count": self.metadata_count,
            "max_rounds": self.max_rounds,
            "sim_cap_s": self.sim_cap_s,
        }


def _scenario_trial(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One fingerprinted trial (module-level so workers can pickle it)."""
    from repro.core.rounds import RoundConfig
    from repro.experiments.figures.common import pdd_experiment

    outcome = pdd_experiment(
        seed=seed,
        rows=int(params["rows"]),
        cols=int(params["cols"]),
        metadata_count=int(params["metadata_count"]),
        round_config=RoundConfig(max_rounds=int(params["max_rounds"])),
        sim_cap_s=float(params["sim_cap_s"]),
    )
    return {
        "recall": outcome.first.recall,
        "latency_s": outcome.first.result.latency,
        "overhead_bytes": outcome.total_overhead_bytes,
    }


# ----------------------------------------------------------------------
# Side execution
# ----------------------------------------------------------------------
@contextmanager
def _env(overrides: Dict[str, Optional[str]]) -> Iterator[None]:
    """Set (or unset, for ``None``) env vars for the block, then restore."""
    previous = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@dataclass
class SideRun:
    """One executed (or loaded) side: its checkpoint streams + ledger."""

    spec: SideSpec
    load: FingerprintLoad
    path: str
    ledger: Optional[Dict[str, Any]] = None


def run_side(
    spec: SideSpec,
    scenario: ScenarioSpec,
    workdir: str,
    checkpoint_every: int,
    detail: Optional[Tuple[int, int]] = None,
) -> SideRun:
    """Execute one side under a fingerprint (or load its recorded file).

    Serial sides (``jobs=1``) also run under an RNG draw ledger, whose
    snapshot feeds the draw-site diff in the report; the ledger only
    observes (wrapped streams draw identical values), so it never
    perturbs the side it is diagnosing.
    """
    if spec.file is not None:
        return SideRun(
            spec=spec, load=load_fingerprints(spec.file), path=spec.file
        )
    suffix = "" if detail is None else ".detail"
    path = os.path.join(workdir, f"side_{spec.label}{suffix}.jsonl")
    # The side's own config shadows any ambient one: it observes exactly
    # what the spec names.
    config = ObsConfig(
        fingerprint=path,
        fingerprint_every=checkpoint_every,
        fingerprint_detail=detail,
    )
    ledger_snapshot: Optional[Dict[str, Any]] = None
    with ExitStack() as stack:
        stack.enter_context(_env({"REPRO_RNG_PERTURB": spec.perturb}))
        stack.enter_context(config.activate())
        if spec.jobs == 1:
            ledger = stack.enter_context(rng_ledger())
            for seed in scenario.seeds:
                _scenario_trial(scenario.to_dict(), seed)
            ledger_snapshot = ledger.snapshot()
        else:
            from repro.experiments.runner import run_sweep

            # No campaign store: cached trials emit no fingerprint, and
            # a perturbed side must not be cached under clean keys.
            run_sweep(
                _scenario_trial,
                [scenario.to_dict()],
                seeds=scenario.seeds,
                jobs=spec.jobs,
            )
    return SideRun(
        spec=spec,
        load=load_fingerprints(path),
        path=path,
        ledger=ledger_snapshot,
    )


# ----------------------------------------------------------------------
# Pairing + bisection
# ----------------------------------------------------------------------
def _digest_map(run: FingerprintRun) -> Dict[int, str]:
    return {
        int(record["i"]): str(record["digest"]) for record in run.checkpoints
    }


def _common_prefix(run_a: FingerprintRun, run_b: FingerprintRun) -> int:
    """How many leading common-index checkpoints agree (pairing metric)."""
    map_a, map_b = _digest_map(run_a), _digest_map(run_b)
    agree = 0
    for index in sorted(set(map_a) & set(map_b)):
        if map_a[index] != map_b[index]:
            break
        agree += 1
    return agree


def pair_runs(
    load_a: FingerprintLoad, load_b: FingerprintLoad
) -> List[Tuple[Optional[FingerprintRun], Optional[FingerprintRun]]]:
    """Match each side-A run with its side-B counterpart.

    Serial campaigns produce runs in deterministic creation order, but a
    ``jobs=N`` side's shard-merged run order depends on worker
    scheduling.  So: first match runs whose *final* digests are equal
    (fully clean pairs, greedy in order), then pair the leftovers by
    longest agreeing checkpoint prefix — the divergent run pairs.
    Unmatched leftovers (different run counts) pair with ``None``.
    """
    remaining_b: List[FingerprintRun] = list(load_b.runs)
    pairs: List[Tuple[Optional[FingerprintRun], Optional[FingerprintRun]]] = []
    divergent_a: List[FingerprintRun] = []
    for run_a in load_a.runs:
        match = next(
            (
                run_b
                for run_b in remaining_b
                if run_b.final_digest == run_a.final_digest
            ),
            None,
        )
        if match is not None:
            remaining_b.remove(match)
            pairs.append((run_a, match))
        else:
            divergent_a.append(run_a)
    for run_a in divergent_a:
        if not remaining_b:
            pairs.append((run_a, None))
            continue
        best = max(remaining_b, key=lambda run_b: _common_prefix(run_a, run_b))
        remaining_b.remove(best)
        pairs.append((run_a, best))
    for run_b in remaining_b:
        pairs.append((None, run_b))
    return pairs


@dataclass
class CheckpointDivergence:
    """The bracketing window the checkpoint bisection found.

    ``kind`` is ``"checkpoint"`` (a common-index checkpoint disagrees —
    the first divergent event lies in ``(last_common, first_divergent]``),
    ``"tail"`` (every common checkpoint agrees but the streams end
    differently — divergence after ``last_common``), or ``"none"``.
    """

    kind: str
    comparisons: int = 0
    last_common: int = 0
    first_divergent: Optional[int] = None
    checkpoint_a: Optional[Dict[str, Any]] = None
    checkpoint_b: Optional[Dict[str, Any]] = None


def bisect_checkpoints(
    run_a: FingerprintRun, run_b: FingerprintRun
) -> CheckpointDivergence:
    """Binary-search two checkpoint streams for the first disagreement.

    Chained digests are monotone — equal at every common index before the
    first divergent event, different at every common index after — so one
    comparison at the last common index detects divergence and
    ``ceil(log2(n))`` more localize it.  ``comparisons`` records the
    exact number of digest comparisons spent.
    """
    map_a, map_b = _digest_map(run_a), _digest_map(run_b)
    common = sorted(set(map_a) & set(map_b))
    comparisons = 0
    if common:
        comparisons += 1
        if map_a[common[-1]] == map_b[common[-1]]:
            last = common[-1]
            if run_a.total_events != run_b.total_events:
                return CheckpointDivergence(
                    kind="tail", comparisons=comparisons, last_common=last
                )
            return CheckpointDivergence(
                kind="none", comparisons=comparisons, last_common=last
            )
        lo, hi = 0, len(common) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            comparisons += 1
            if map_a[common[mid]] == map_b[common[mid]]:
                lo = mid + 1
            else:
                hi = mid
        first = common[lo]
        ckpt_a = next(c for c in run_a.checkpoints if int(c["i"]) == first)
        ckpt_b = next(c for c in run_b.checkpoints if int(c["i"]) == first)
        return CheckpointDivergence(
            kind="checkpoint",
            comparisons=comparisons,
            last_common=common[lo - 1] if lo > 0 else 0,
            first_divergent=first,
            checkpoint_a=ckpt_a,
            checkpoint_b=ckpt_b,
        )
    if run_a.total_events or run_b.total_events:
        return CheckpointDivergence(kind="tail", comparisons=comparisons)
    return CheckpointDivergence(kind="none", comparisons=comparisons)


# ----------------------------------------------------------------------
# Event-level localization
# ----------------------------------------------------------------------
_EVENT_FIELDS = ("t", "prio", "seq", "h", "args")


@dataclass
class EventDivergence:
    """The first divergent event, field-by-field, with leading context."""

    index: int
    event_a: Optional[Dict[str, Any]]
    event_b: Optional[Dict[str, Any]]
    fields: List[str] = field(default_factory=list)
    context_a: List[Dict[str, Any]] = field(default_factory=list)
    context_b: List[Dict[str, Any]] = field(default_factory=list)


def first_divergent_event(
    events_a: Sequence[Dict[str, Any]],
    events_b: Sequence[Dict[str, Any]],
    window: Tuple[int, int],
    context: int,
) -> Optional[EventDivergence]:
    """Scan two detail-record streams for the first divergent event.

    The window starts after the last agreeing checkpoint, so every
    earlier event is known-identical; within it the *chained digest*
    carried on each detail record is the arbiter (it catches payload
    differences the identity fields alone might miss), and the identity
    fields name what changed.
    """
    by_a = {int(rec["i"]): rec for rec in events_a}
    by_b = {int(rec["i"]): rec for rec in events_b}
    lo, hi = window
    for index in range(lo, hi + 1):
        rec_a, rec_b = by_a.get(index), by_b.get(index)
        if rec_a is None and rec_b is None:
            break
        if (
            rec_a is None
            or rec_b is None
            or rec_a.get("digest") != rec_b.get("digest")
        ):
            fields = [
                name
                for name in _EVENT_FIELDS
                if (rec_a or {}).get(name) != (rec_b or {}).get(name)
            ]
            take = range(max(lo, index - context), index)
            return EventDivergence(
                index=index,
                event_a=rec_a,
                event_b=rec_b,
                fields=fields,
                context_a=[by_a[i] for i in take if i in by_a],
                context_b=[by_b[i] for i in take if i in by_b],
            )
    return None


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class DivergeReport:
    """Everything ``repro diverge`` found, renderable and JSON-able."""

    side_a: str
    side_b: str
    scenario: Optional[Dict[str, Any]]
    checkpoint_every: int
    runs_a: int = 0
    runs_b: int = 0
    clean_pairs: int = 0
    pair_index: Optional[int] = None
    divergence: Optional[CheckpointDivergence] = None
    event: Optional[EventDivergence] = None
    ledger_skews: List[Dict[str, Any]] = field(default_factory=list)
    stream_skews: List[str] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return self.divergence is not None and self.divergence.kind != "none"

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "side_a": self.side_a,
            "side_b": self.side_b,
            "scenario": self.scenario,
            "checkpoint_every": self.checkpoint_every,
            "runs": {"a": self.runs_a, "b": self.runs_b},
            "clean_pairs": self.clean_pairs,
            "diverged": self.diverged,
        }
        if self.divergence is not None:
            doc["divergence"] = {
                "kind": self.divergence.kind,
                "comparisons": self.divergence.comparisons,
                "last_common": self.divergence.last_common,
                "first_divergent_checkpoint": self.divergence.first_divergent,
            }
        if self.event is not None:
            doc["event"] = {
                "index": self.event.index,
                "fields": self.event.fields,
                "a": self.event.event_a,
                "b": self.event.event_b,
            }
        if self.ledger_skews:
            doc["ledger_skews"] = self.ledger_skews
        if self.stream_skews:
            doc["stream_skews"] = self.stream_skews
        return doc

    def render(self) -> str:
        lines = [
            f"diverge: A[{self.side_a}] vs B[{self.side_b}]",
            f"  runs: A={self.runs_a} B={self.runs_b} "
            f"(identical pairs: {self.clean_pairs})",
        ]
        if not self.diverged:
            lines.append("  no divergence: all paired runs carry identical "
                         "chained digests")
            return "\n".join(lines)
        div = self.divergence
        assert div is not None
        lines.append(
            f"  divergent run pair #{self.pair_index}: first disagreement "
            f"bracketed in {div.comparisons} checkpoint comparisons"
        )
        if div.kind == "checkpoint" and div.checkpoint_a and div.checkpoint_b:
            lines.append(
                f"  checkpoints agree through event {div.last_common}, "
                f"disagree at event {div.first_divergent}:"
            )
            for side, ckpt in (("A", div.checkpoint_a), ("B", div.checkpoint_b)):
                lines.append(
                    f"    {side}: digest {ckpt['digest']}  "
                    f"t={ckpt['t']} seq={ckpt['seq']} h={ckpt['h']}"
                )
        elif div.kind == "tail":
            lines.append(
                f"  checkpoints agree through event {div.last_common}; "
                f"one stream continues past the other (tail divergence)"
            )
        if self.event is not None:
            ev = self.event
            lines.append(f"  first divergent event: #{ev.index}")
            for side, rec, ctx in (
                ("A", ev.event_a, ev.context_a),
                ("B", ev.event_b, ev.context_b),
            ):
                for prev in ctx[-3:]:
                    lines.append(
                        f"    {side}  ... #{prev['i']} t={prev['t']} "
                        f"seq={prev['seq']} {prev['h']}"
                    )
                if rec is None:
                    lines.append(f"    {side} >>> (stream ended)")
                else:
                    lines.append(
                        f"    {side} >>> t={rec['t']} prio={rec['prio']} "
                        f"seq={rec['seq']} h={rec['h']} args={rec['args']}"
                    )
            if ev.fields:
                lines.append(f"  divergent fields: {', '.join(ev.fields)}")
        if self.ledger_skews:
            first = self.ledger_skews[0]
            lines.append(
                f"  first RNG draw-site skew: {first['site']} "
                f"(A drew {first['a']}, B drew {first['b']}; "
                f"{len(self.ledger_skews)} skewed site(s) total)"
            )
        elif self.stream_skews:
            lines.append(
                "  RNG draw counts match on every site, but drawn values "
                f"differ on stream(s): {', '.join(self.stream_skews)}"
            )
        return "\n".join(lines)


def suggest_command(
    side_a: str, side_b: str, scenario: Optional[ScenarioSpec] = None
) -> str:
    """The ready-to-paste ``repro diverge`` invocation the gates print."""
    parts = ["python -m repro diverge", f"--a '{side_a}'", f"--b '{side_b}'"]
    if scenario is not None:
        parts.append(
            f"--seeds {','.join(str(s) for s in scenario.seeds)} "
            f"--rows {scenario.rows} --cols {scenario.cols} "
            f"--metadata-count {scenario.metadata_count}"
        )
    return " ".join(parts)


def diverge(
    spec_a: SideSpec,
    spec_b: SideSpec,
    scenario: Optional[ScenarioSpec] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    context: int = DEFAULT_CONTEXT,
    workdir: Optional[str] = None,
) -> DivergeReport:
    """Run (or load) both sides, bisect, and localize the first divergence.

    Executable sides are run twice at most: once with checkpoints only,
    then — if the bisection finds a divergent bracket — once more with a
    detail window covering ``(last_common - context, first_divergent]``
    to name the exact event.  Recorded-file sides are never re-run; if
    their streams carry detail records for the bracket those are used,
    otherwise the report stops at the checkpoint window.
    """
    if scenario is None:
        scenario = ScenarioSpec()
    both_files = spec_a.file is not None and spec_b.file is not None
    with ExitStack() as stack:
        if workdir is None:
            workdir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-diverge-")
            )
        else:
            os.makedirs(workdir, exist_ok=True)
        side_a = run_side(spec_a, scenario, workdir, checkpoint_every)
        side_b = run_side(spec_b, scenario, workdir, checkpoint_every)
        report = DivergeReport(
            side_a=spec_a.describe(),
            side_b=spec_b.describe(),
            scenario=None if both_files else scenario.to_dict(),
            checkpoint_every=checkpoint_every,
            runs_a=len(side_a.load.runs),
            runs_b=len(side_b.load.runs),
        )
        pairs = pair_runs(side_a.load, side_b.load)
        divergent: Optional[
            Tuple[int, FingerprintRun, FingerprintRun, CheckpointDivergence]
        ] = None
        for index, (run_a, run_b) in enumerate(pairs):
            if run_a is None or run_b is None:
                continue
            result = bisect_checkpoints(run_a, run_b)
            if result.kind == "none":
                report.clean_pairs += 1
            elif divergent is None:
                divergent = (index, run_a, run_b, result)
        if divergent is None:
            unmatched = [pair for pair in pairs if None in pair]
            if unmatched:
                report.divergence = CheckpointDivergence(kind="tail")
                report.pair_index = pairs.index(unmatched[0])
            return report
        pair_index, run_a, run_b, result = divergent
        report.pair_index = pair_index
        report.divergence = result

        if side_a.ledger is not None and side_b.ledger is not None:
            report.ledger_skews = diff_ledgers(side_a.ledger, side_b.ledger)
            streams_a = side_a.ledger.get("streams", {})
            streams_b = side_b.ledger.get("streams", {})
            report.stream_skews = sorted(
                name
                for name in set(streams_a) | set(streams_b)
                if streams_a.get(name) != streams_b.get(name)
            )

        # Bracket for the event-level pass: everything before last_common
        # is known-identical; the divergent event is at most one
        # checkpoint interval past it.
        hi = result.first_divergent
        if hi is None:
            hi = result.last_common + checkpoint_every
        lo = max(1, result.last_common + 1 - context)
        window = (lo, hi)

        events_a = _detail_events(
            side_a, scenario, workdir, checkpoint_every, window, run_a
        )
        events_b = _detail_events(
            side_b, scenario, workdir, checkpoint_every, window, run_b
        )
        if events_a is not None and events_b is not None:
            report.event = first_divergent_event(
                events_a, events_b, window, context
            )
        return report


def _detail_events(
    side: SideRun,
    scenario: ScenarioSpec,
    workdir: str,
    checkpoint_every: int,
    window: Tuple[int, int],
    target: FingerprintRun,
) -> Optional[List[Dict[str, Any]]]:
    """Detail records covering ``window`` for the divergent run ``target``.

    Recorded-file sides can only use detail records already present;
    executable sides re-run deterministically with the window enabled
    (same spec, same seeds — the re-run reproduces the original streams
    exactly) and the re-run's copy of ``target`` is found by final
    digest, falling back to longest agreeing checkpoint prefix (robust
    to ``jobs>1`` shard-merge order).
    """
    if side.spec.file is not None:
        return target.events or None
    rerun = run_side(
        side.spec, scenario, workdir, checkpoint_every, detail=window
    )
    for run in rerun.load.runs:
        if run.final_digest == target.final_digest:
            return run.events
    if rerun.load.runs:
        best = max(
            rerun.load.runs, key=lambda run: _common_prefix(run, target)
        )
        return best.events
    return None


def expected_comparisons(total_checkpoints: int) -> int:
    """Upper bound the bisection must respect: 1 + ceil(log2(n))."""
    if total_checkpoints <= 1:
        return 1
    return 1 + math.ceil(math.log2(total_checkpoints))


__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_CONTEXT",
    "CheckpointDivergence",
    "DivergeReport",
    "EventDivergence",
    "ScenarioSpec",
    "SideSpec",
    "bisect_checkpoints",
    "diverge",
    "expected_comparisons",
    "first_divergent_event",
    "pair_runs",
    "run_side",
    "suggest_command",
]
