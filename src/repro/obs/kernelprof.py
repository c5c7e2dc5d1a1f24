"""Run profiling: one record per simulator run.

While a :class:`KernelProfiler` is active, every :meth:`Simulator.run()
<repro.sim.simulator.Simulator.run>` call reports a :class:`RunRecord`
here — wall-clock duration, processed events, final virtual time and peak
event-queue depth, labelled by the enclosing :func:`label` blocks so the
profile reads "seed 3 → 1.2 s wall, 410k events, 340k ev/s".  That says
how *fast* a run was; which layer of the stack the wall went to is
perfbench's question (its ``--trace 1`` mode reports self time per layer).

Zero-cost / determinism contract
--------------------------------

An active profiler does not change which dispatch loop the simulator
runs: the only cost is one ``active_kernel_profiler()`` call and two
clock reads per ``run()``.  Event order, RNG draws and virtual time are
untouched, so profiled runs keep exact output digests.

Multi-process campaigns: each worker runs its own :class:`KernelProfiler`,
ships :meth:`KernelProfiler.snapshot` back with the trial result, and the
parent folds the run records into its own profiler with
:meth:`KernelProfiler.merge_snapshot`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class RunRecord:
    """One ``Simulator.run()`` call observed by the profiler."""

    label: str
    wall_s: float
    events: int
    sim_time_s: float
    peak_queue_depth: int

    @property
    def events_per_s(self) -> float:
        """Processed events per wall-clock second."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


class KernelProfiler:
    """Per-run records of every simulator run made while active.

    Attributes:
        records: One :class:`RunRecord` per ``Simulator.run()`` call made
            while this profiler was active (or merged in from another).
    """

    def __init__(self) -> None:
        self.records: List[RunRecord] = []

    def record_run(
        self,
        wall_s: float,
        events: int,
        sim_time_s: float,
        peak_queue_depth: int,
    ) -> None:
        """Called by the simulator at the end of each ``run()``."""
        self.records.append(
            RunRecord(
                label=" / ".join(_LABELS) if _LABELS else "run",
                wall_s=wall_s,
                events=events,
                sim_time_s=sim_time_s,
                peak_queue_depth=peak_queue_depth,
            )
        )

    @contextmanager
    def activate(self) -> Iterator["KernelProfiler"]:
        """Make this the process-wide kernel profiler for the block.

        Nestable: a profiler activated inside another one's span shadows
        it for the duration, so the inner block's runs are recorded by
        the inner profiler only.
        """
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous

    # ------------------------------------------------------------------
    # Merging (worker -> parent)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Picklable/JSON-able form for cross-process return values."""
        return {
            "runs": [
                [r.label, r.wall_s, r.events, r.sim_time_s, r.peak_queue_depth]
                for r in self.records
            ],
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict (e.g. one a worker returned)."""
        self.records.extend(
            RunRecord(str(label), float(wall), int(events), float(sim), int(peak))
            for label, wall, events, sim, peak in snapshot.get("runs", [])
        )

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def runs_summary(self) -> Dict[str, float]:
        """Aggregate totals over all recorded runs."""
        wall = sum(r.wall_s for r in self.records)
        events = sum(r.events for r in self.records)
        return {
            "runs": len(self.records),
            "wall_s": wall,
            "events": events,
            "events_per_s": events / wall if wall > 0 else 0.0,
            "peak_queue_depth": max(
                (r.peak_queue_depth for r in self.records), default=0
            ),
        }

    def render_runs(self) -> str:
        """Per-run table (printed by the CLI under ``--metrics``)."""
        if not self.records:
            return "profile: no simulator runs recorded"
        lines = ["profile:"]
        for record in self.records:
            lines.append(
                f"  {record.label:<28s} wall {record.wall_s:8.3f}s  "
                f"events {record.events:>9d}  "
                f"{record.events_per_s:>10.0f} ev/s  "
                f"sim {record.sim_time_s:8.1f}s  "
                f"peak queue {record.peak_queue_depth}"
            )
        totals = self.runs_summary()
        lines.append(
            f"  {'TOTAL':<28s} wall {totals['wall_s']:8.3f}s  "
            f"events {int(totals['events']):>9d}  "
            f"{totals['events_per_s']:>10.0f} ev/s  "
            f"peak queue {int(totals['peak_queue_depth'])}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
_ACTIVE: Optional[KernelProfiler] = None

#: Run-record label stack (see :func:`label`).
_LABELS: List[str] = []


def active_kernel_profiler() -> Optional[KernelProfiler]:
    """The kernel profiler currently activated, or None."""
    return _ACTIVE


@contextmanager
def label(text: str) -> Iterator[None]:
    """Prefix run records emitted inside the block (nestable)."""
    _LABELS.append(text)
    try:
        yield
    finally:
        _LABELS.pop()


def _clear_active() -> None:
    """Drop a profiler (and labels) inherited by a forked worker process."""
    global _ACTIVE
    _ACTIVE = None
    _LABELS.clear()
