"""The paper's metrics (§VI-A) and multi-seed aggregation.

* **Recall** — fraction of distinct entries/chunks the consumer received.
* **Latency** — query sent → last returned entry/chunk arrival.
* **Message overhead** — bytes of all messages put on the air.

Parallel campaigns (``run_trials(..., jobs=N)``) survive individual trial
crashes: a trial that keeps failing after its retry is recorded as a
:class:`TrialFailure` on the aggregate instead of aborting the campaign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class TrialMetrics:
    """One run's outcome."""

    recall: float
    latency_s: float
    overhead_bytes: int
    rounds: int = 0
    completed: bool = True
    extras: dict = field(default_factory=dict)

    @property
    def overhead_mb(self) -> float:
        """Overhead in decimal megabytes (as the paper reports)."""
        return self.overhead_bytes / 1e6


@dataclass(frozen=True)
class TrialFailure:
    """One seed's trial that kept failing after its retry.

    Attributes:
        label: The trial's campaign label (e.g. ``"seed 3"``).
        seed: The seed that failed, or -1 when unknown.
        kind: ``"error"`` (trial raised), ``"timeout"`` (per-trial deadline
            hit) or ``"crash"`` (the worker process died).  A kind is only
            ever the failing task's own behaviour: a sibling sharing a
            pool with a crashing trial is requeued, never blamed.
        error: Stringified exception from the final attempt.
        attempts: Executions attributable to *this* task.  Pool-wide
            ``BrokenProcessPool`` fallout on sibling tasks is not charged
            — only runs where the task itself raised, timed out, or was
            the lone task in a broken pool count.
    """

    label: str
    seed: int
    kind: str
    error: str
    attempts: int


@dataclass(frozen=True)
class AggregateMetrics:
    """Mean ± stdev over seeds.

    ``failures`` lists the seeds that kept failing in a crash-isolated
    parallel campaign; the statistics cover the surviving trials only.
    """

    recall_mean: float
    recall_std: float
    latency_mean: float
    latency_std: float
    overhead_mb_mean: float
    overhead_mb_std: float
    rounds_mean: float
    trials: int
    failures: Tuple[TrialFailure, ...] = ()
    #: Audit violation counts by invariant, summed over trials that put
    #: an ``extras["audit"]`` dict on their metrics (traced trials only).
    audit: Tuple[Tuple[str, int], ...] = ()
    #: How many trials carried an audit summary at all.
    audited_trials: int = 0
    #: Flight-recorder series stats folded over trials carrying an
    #: ``extras["timeline"]`` summary (recorded trials only):
    #: ``(peak_lqt, cdi_conv_s, airtime_util)``.
    timeline: Tuple[Tuple[str, float], ...] = ()
    #: How many trials carried a timeline summary at all.
    timeline_trials: int = 0
    #: Trials satisfied from a campaign store instead of being executed.
    #: ``None`` when the campaign ran without a store (the column stays
    #: out of ``as_row()`` so store-less tables keep their exact shape).
    cache_hits: "int | None" = None
    #: Trials actually executed this campaign (store campaigns only):
    #: ``cache_hits + executed == trials + len(failures)``.
    executed: "int | None" = None

    @classmethod
    def from_trials(
        cls,
        trials: Sequence[TrialMetrics],
        failures: Sequence[TrialFailure] = (),
        cache_hits: "int | None" = None,
        executed: "int | None" = None,
    ) -> "AggregateMetrics":
        if not trials and not failures:
            raise ValueError("cannot aggregate zero trials")
        if not trials:
            return cls(
                recall_mean=0.0,
                recall_std=0.0,
                latency_mean=0.0,
                latency_std=0.0,
                overhead_mb_mean=0.0,
                overhead_mb_std=0.0,
                rounds_mean=0.0,
                trials=0,
                failures=tuple(failures),
                cache_hits=cache_hits,
                executed=executed,
            )
        recalls = [t.recall for t in trials]
        latencies = [t.latency_s for t in trials]
        overheads = [t.overhead_mb for t in trials]
        rounds = [t.rounds for t in trials]
        audit: Dict[str, int] = {}
        audited = 0
        for trial_metrics in trials:
            if "audit" not in trial_metrics.extras:
                continue
            audited += 1
            for invariant, count in trial_metrics.extras["audit"].items():
                audit[invariant] = audit.get(invariant, 0) + int(count)
        timelines = [
            t.extras["timeline"] for t in trials if "timeline" in t.extras
        ]
        timeline: Tuple[Tuple[str, float], ...] = ()
        if timelines:
            timeline = (
                ("peak_lqt", max(int(s.get("peak_lqt", 0)) for s in timelines)),
                (
                    "cdi_conv_s",
                    _mean([float(s.get("cdi_conv_s", 0.0)) for s in timelines]),
                ),
                (
                    "airtime_util",
                    _mean([float(s.get("airtime_util", 0.0)) for s in timelines]),
                ),
            )
        return cls(
            recall_mean=_mean(recalls),
            recall_std=_std(recalls),
            latency_mean=_mean(latencies),
            latency_std=_std(latencies),
            overhead_mb_mean=_mean(overheads),
            overhead_mb_std=_std(overheads),
            rounds_mean=_mean(rounds),
            trials=len(trials),
            failures=tuple(failures),
            audit=tuple(sorted(audit.items())),
            audited_trials=audited,
            timeline=timeline,
            timeline_trials=len(timelines),
            cache_hits=cache_hits,
            executed=executed,
        )

    def as_row(self) -> Dict[str, float]:
        """Flat dict for table rendering (mean ± std, as the paper plots).

        Trials that ran a trace audit (``extras["audit"]``) contribute a
        total ``violations`` column plus one ``audit_<invariant>`` column
        per invariant that actually fired, so a protocol regression shows
        up in the experiment tables, not just the inspect CLI.
        """
        row: Dict[str, float] = {
            "recall": round(self.recall_mean, 3),
            "recall_std": round(self.recall_std, 3),
            "latency_s": round(self.latency_mean, 2),
            "latency_std": round(self.latency_std, 2),
            "overhead_mb": round(self.overhead_mb_mean, 2),
            "overhead_mb_std": round(self.overhead_mb_std, 2),
            "rounds": round(self.rounds_mean, 1),
        }
        if self.audited_trials:
            row["violations"] = sum(count for _, count in self.audit)
            for invariant, count in self.audit:
                if count:
                    row[f"audit_{invariant}"] = count
        if self.timeline_trials:
            for name, value in self.timeline:
                if name == "peak_lqt":
                    row[name] = int(value)
                elif name == "airtime_util":
                    row[name] = round(value, 4)
                else:
                    row[name] = round(value, 2)
        if self.cache_hits is not None:
            # Store-backed campaigns only: how much of the table came from
            # cached trials vs fresh executions.  Intentionally absent on
            # store-less runs so their tables stay byte-identical to the
            # pre-store format.
            row["cache_hits"] = self.cache_hits
            if self.executed is not None:
                row["executed"] = self.executed
        return row


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _std(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))
