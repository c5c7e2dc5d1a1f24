"""Run profiling: one record per simulator run, plus the run's registries.

While ``ObsConfig(metrics=True)`` is active (``repro <figure>
--metrics``), the activation's :class:`KernelProfiler` collects two
views of every simulator built under it:

* each :meth:`Simulator.run() <repro.sim.simulator.Simulator.run>` call
  reports a :class:`RunRecord` — wall-clock duration, processed events,
  final virtual time and peak event-queue depth, labelled with the
  profiler's current trial label (:meth:`KernelProfiler.labelled`) so
  the profile reads "seed 3 → 1.2 s wall, 410k events, 340k ev/s";
* each simulator hands its :class:`~repro.obs.metrics.MetricsRegistry`
  to the profiler when it is built (:meth:`KernelProfiler.watch`), and
  :meth:`KernelProfiler.registry` merges them into one campaign view.

That says how *fast* a run was and what it counted; which layer of the
stack the wall went to is perfbench's question (its ``--trace 1`` mode
reports self time per layer).

Zero-cost / determinism contract
--------------------------------

Profiling does not change which dispatch loop the simulator runs: the
only cost is one ``active("metrics")`` call and two clock reads per
``run()``.  Event order, RNG draws and virtual time are untouched, so
profiled runs keep exact output digests.

Multi-process campaigns: each worker's activation has its own profiler;
after every trial the worker ships :meth:`KernelProfiler.drain` back with
the trial's value, and the parent folds it into its own profiler with
:meth:`KernelProfiler.merge_snapshot`.  ``repro bench`` drains the same
way once per benchmark.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.obs.metrics import MetricsRegistry


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
    """Run records and metrics registries of the simulators it watches.

    Attributes:
        records: One :class:`RunRecord` per ``Simulator.run()`` call
            reported here (or merged in from another profiler).
        label: Label stamped on the next run records (see
            :meth:`labelled`).
    """

    def __init__(self) -> None:
        self.records: List[RunRecord] = []
        self.label = "run"
        self._registries: List[MetricsRegistry] = []

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
                label=self.label,
                wall_s=wall_s,
                events=events,
                sim_time_s=sim_time_s,
                peak_queue_depth=peak_queue_depth,
            )
        )

    def watch(self, registry: MetricsRegistry) -> None:
        """Include a (simulator's) live registry in :meth:`registry`."""
        self._registries.append(registry)

    @contextmanager
    def labelled(self, text: str) -> Iterator["KernelProfiler"]:
        """Label the run records reported inside the block ``text``."""
        previous, self.label = self.label, text
        try:
            yield self
        finally:
            self.label = previous

    def registry(self) -> MetricsRegistry:
        """Every watched and merged-in registry folded into one, in order."""
        merged = MetricsRegistry()
        for registry in self._registries:
            merged.merge_snapshot(registry.snapshot())
        return merged

    # ------------------------------------------------------------------
    # Merging (worker -> parent)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Picklable/JSON-able form of the run records and merged registry."""
        return {
            "runs": [
                [r.label, r.wall_s, r.events, r.sim_time_s, r.peak_queue_depth]
                for r in self.records
            ],
            "metrics": self.registry().snapshot(),
        }

    def drain(self) -> Dict[str, object]:
        """:meth:`snapshot`, then forget everything recorded so far."""
        snapshot = self.snapshot()
        self.records = []
        self._registries = []
        return snapshot

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict (e.g. one a worker returned)."""
        self.records.extend(
            RunRecord(str(label), float(wall), int(events), float(sim), int(peak))
            for label, wall, events, sim, peak in snapshot["runs"]
        )
        registry = MetricsRegistry()
        registry.merge_snapshot(snapshot["metrics"])
        self._registries.append(registry)

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
