"""Structured records of trials that kept failing.

The paper's metrics (§VI-A) — recall, latency and message overhead —
are plain fields of the dicts each figure's trial function returns, and
:func:`repro.experiments.runner.point_mean` averages them over seeds.
Parallel campaigns (``run_sweep(..., jobs=N)``) survive individual trial
crashes: a trial that keeps failing after its retry is recorded as a
:class:`TrialFailure` on its :class:`~repro.experiments.runner.SweepPoint`
instead of aborting the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TrialFailure:
    """One seed's trial that kept failing after its retry.

    Attributes:
        label: The trial's campaign label (e.g. ``"5x5 seed 3"``).
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
