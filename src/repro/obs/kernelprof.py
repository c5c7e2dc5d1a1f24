"""Kernel profiling: per-run totals and per-handler hotspot attribution.

While a :class:`KernelProfiler` is active, every :meth:`Simulator.run()
<repro.sim.simulator.Simulator.run>` call reports a :class:`RunRecord`
here — wall-clock duration, processed events, final virtual time and peak
event-queue depth, labelled by the enclosing :func:`label` blocks so the
profile reads "seed 3 → 1.2 s wall, 410k events, 340k ev/s".  That says
how *fast* a run was.  With ``handlers=True`` (the default) the profiler
also says *why*: the simulator switches to its observed dispatch loop,
which wraps every ``event.fire()`` in a ``perf_counter_ns`` delta
attributed to the event's handler function.  Aggregation is designed for
the hot path:

* one accumulator per *handler function* — bound methods collapse onto
  their underlying function via ``__func__``, so the accumulator table
  stays small (one entry per scheduling site, not per event);
* each accumulator is a preallocated two-slot list ``[count, ns]``
  mutated in place — no objects, tuples or strings are built per event;
* names are resolved only at report time: a handler's *subsystem* is
  derived from its module (``repro.net.medium`` → ``net.medium``), its
  display name from ``__qualname__``.

Zero-cost / determinism contract
--------------------------------

With no profiler active (or one with ``handlers=False``) the simulator
runs its plain dispatch loop — the only cost is one
``active_kernel_profiler()`` call per ``run()`` plus, for a run-only
profiler, two clock reads per ``run()``.  With handler attribution on,
timing wraps *around* ``event.fire()`` without touching event order, RNG
draws, or virtual time, so profiled runs keep exact output digests; only
wall time changes (measured <10% on the mobility workload).

Exports
-------

Reports come in four shapes: :meth:`KernelProfiler.render_runs` (the
per-run table printed under ``--metrics``), :meth:`KernelProfiler.render`
(top-N hotspot tables for the ``repro profile`` CLI),
:meth:`KernelProfiler.collapsed_stacks` (FlameGraph/speedscope-
compatible collapsed-stack text, one ``frame;frame value`` line per
handler, values in microseconds), and :meth:`KernelProfiler.summary` /
:meth:`KernelProfiler.trial_summary` (flat dicts for campaign columns —
``hot_subsystem`` / ``kernel_share`` in ``as_row()``).

Multi-process campaigns: each worker runs its own :class:`KernelProfiler`
(handler attribution travels via :func:`request_profiling` in the worker
initializer, or the ``REPRO_PROFILE`` env knob), ships :meth:`snapshot`
back with the trial result, and the parent folds it — run records
included — into its own profiler with :meth:`merge_snapshot`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Collapsed-stack root frame (groups all handlers under one flame base).
FLAME_ROOT = "repro-sim"

#: Subsystem label of :func:`dispatch`.  The observed dispatch loop books
#: per-event peek/pop time there, so event-queue overhead shows up as its
#: own subsystem instead of hiding in the profiled wall's idle remainder.
#: Entries under this subsystem carry *dispatch* counts, not fired events,
#: so :attr:`KernelProfiler.events` excludes them — every simulator event
#: would otherwise be counted twice.
SCHEDULER_SUBSYSTEM = "sim.scheduler"


def dispatch() -> None:  # pragma: no cover - never called, only keyed
    """Sentinel handler keying the event queue's peek/pop time."""


def _subsystem_of(fn: Any) -> str:
    """Subsystem label for a handler function (module-derived)."""
    if fn is dispatch:
        return SCHEDULER_SUBSYSTEM
    module = getattr(fn, "__module__", None) or ""
    if module == "repro" or module.startswith("repro."):
        parts = module.split(".")[1:]
        return ".".join(parts[:2]) if parts else "repro"
    return module or "(unknown)"


def _handler_of(fn: Any) -> str:
    """Display name for a handler function."""
    name = getattr(fn, "__qualname__", None)
    if name:
        return name
    return getattr(fn, "__name__", None) or repr(fn)


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
    """Per-run records plus per-handler wall-time and count attribution.

    Args:
        handlers: Attribute every fired event to its handler (the
            simulator's observed loop).  ``False`` keeps the plain loop
            and records only the per-run :attr:`records`.

    Attributes:
        records: One :class:`RunRecord` per ``Simulator.run()`` call made
            while this profiler was active (or merged in from another).
        wall_ns: Wall time covered by this profiler's own
            :meth:`activate` spans (merges do **not** add wall — a
            worker's share is judged against *its* wall inside its own
            trial summary, and a parent's wall already covers the spans
            of any profiler nested under it).
    """

    def __init__(self, handlers: bool = True) -> None:
        self.handlers = handlers
        #: handler function -> [count, ns]; hot-path table (see note()).
        self._acc: Dict[Any, List[int]] = {}
        #: (subsystem, handler) -> [count, ns]; merged-in (name-keyed).
        self._named: Dict[Tuple[str, str], List[int]] = {}
        self.wall_ns: int = 0
        self.records: List[RunRecord] = []

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def note(self, callback: Callable[..., Any], ns: int) -> None:
        """Attribute ``ns`` nanoseconds to ``callback``'s handler.

        The simulator's observed loop inlines this update per fired event.
        """
        key = getattr(callback, "__func__", callback)
        acc = self._acc.get(key)
        if acc is None:
            acc = self._acc[key] = [0, 0]
        acc[0] += 1
        acc[1] += ns

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

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    @contextmanager
    def activate(self) -> Iterator["KernelProfiler"]:
        """Make this the process-wide kernel profiler for the block.

        Nestable: a profiler activated inside another one's span shadows
        it for the duration (the inner block's events are attributed to
        the inner profiler only; fold them upward explicitly with
        :meth:`merge` if the outer view should include them).  The span's
        wall-clock duration is added to :attr:`wall_ns` on exit.
        """
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        start = perf_counter_ns()
        try:
            yield self
        finally:
            self.wall_ns += perf_counter_ns() - start
            _ACTIVE = previous

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def stats(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """``(subsystem, handler) -> (count, total_ns)``, names resolved."""
        merged: Dict[Tuple[str, str], List[int]] = {}
        for fn, (count, ns) in self._acc.items():
            key = (_subsystem_of(fn), _handler_of(fn))
            entry = merged.get(key)
            if entry is None:
                entry = merged[key] = [0, 0]
            entry[0] += count
            entry[1] += ns
        for key, (count, ns) in self._named.items():
            entry = merged.get(key)
            if entry is None:
                entry = merged[key] = [0, 0]
            entry[0] += count
            entry[1] += ns
        return {key: (value[0], value[1]) for key, value in merged.items()}

    def subsystem_totals(self) -> Dict[str, Tuple[int, int]]:
        """``subsystem -> (count, total_ns)`` roll-up of :meth:`stats`."""
        totals: Dict[str, List[int]] = {}
        for (subsystem, _), (count, ns) in self.stats().items():
            entry = totals.get(subsystem)
            if entry is None:
                entry = totals[subsystem] = [0, 0]
            entry[0] += count
            entry[1] += ns
        return {name: (value[0], value[1]) for name, value in totals.items()}

    @property
    def events(self) -> int:
        """Total events attributed so far (scheduler dispatches excluded)."""
        return sum(
            count
            for (subsystem, _), (count, _) in self.stats().items()
            if subsystem != SCHEDULER_SUBSYSTEM
        )

    @property
    def kernel_ns(self) -> int:
        """Total nanoseconds spent inside event handlers."""
        return sum(ns for _, ns in self.stats().values())

    # ------------------------------------------------------------------
    # Merging (worker -> parent, trial -> campaign)
    # ------------------------------------------------------------------
    def merge(self, other: "KernelProfiler") -> None:
        """Fold another profiler's handler stats and run records in.

        Wall time is *not* folded — see :attr:`wall_ns`.
        """
        self._merge_stats(other.stats())
        self.records.extend(other.records)

    def snapshot(self) -> Dict[str, object]:
        """Picklable/JSON-able form for cross-process return values."""
        return {
            "wall_ns": self.wall_ns,
            "handlers": [
                [subsystem, handler, count, ns]
                for (subsystem, handler), (count, ns) in sorted(self.stats().items())
            ],
            "runs": [
                [r.label, r.wall_s, r.events, r.sim_time_s, r.peak_queue_depth]
                for r in self.records
            ],
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict (e.g. one a worker returned)."""
        self._merge_stats(
            {
                (str(subsystem), str(handler)): (int(count), int(ns))
                for subsystem, handler, count, ns in snapshot.get("handlers", [])
            }
        )
        self.records.extend(
            RunRecord(str(label), float(wall), int(events), float(sim), int(peak))
            for label, wall, events, sim, peak in snapshot.get("runs", [])
        )

    def _merge_stats(
        self, stats: Dict[Tuple[str, str], Tuple[int, int]]
    ) -> None:
        for key, (count, ns) in stats.items():
            entry = self._named.get(key)
            if entry is None:
                entry = self._named[key] = [0, 0]
            entry[0] += count
            entry[1] += ns

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

    def summary(self) -> Dict[str, object]:
        """Flat roll-up: totals, share of profiled wall, hottest entries.

        ``events`` counts fired handler events; ``kernel_s`` /
        ``kernel_share`` cover handler time *plus* scheduler dispatch time
        (the ``sim.scheduler`` pseudo-subsystem), so the share reflects
        everything the kernel does per event.
        """
        stats = self.stats()
        events = sum(
            count
            for (subsystem, _), (count, _) in stats.items()
            if subsystem != SCHEDULER_SUBSYSTEM
        )
        kernel_ns = sum(ns for _, ns in stats.values())
        subsystems = self.subsystem_totals()
        hot_subsystem = ""
        hot_handler = ""
        if subsystems:
            hot_subsystem = max(subsystems, key=lambda name: subsystems[name][1])
        if stats:
            hot_key = max(stats, key=lambda key: stats[key][1])
            hot_handler = f"{hot_key[0]}:{hot_key[1]}"
        return {
            "events": events,
            "kernel_s": kernel_ns / 1e9,
            "wall_s": self.wall_ns / 1e9,
            "kernel_share": (
                kernel_ns / self.wall_ns if self.wall_ns > 0 else 0.0
            ),
            "hot_subsystem": hot_subsystem,
            "hot_handler": hot_handler,
        }

    def trial_summary(self) -> Dict[str, object]:
        """Per-trial dict for ``TrialMetrics.extras["profile"]``.

        Carries per-subsystem nanoseconds so campaign aggregation can
        recompute the hottest subsystem over *all* trials rather than
        voting per trial.
        """
        summary = self.summary()
        summary["subsystem_ns"] = {
            name: ns for name, (_, ns) in sorted(self.subsystem_totals().items())
        }
        return summary

    def render(self, top: int = 15) -> str:
        """Hotspot tables: per-subsystem shares, then top-N handlers."""
        stats = self.stats()
        if not stats:
            return "kernel profile: no events attributed"
        kernel_ns = sum(ns for _, ns in stats.values())
        events = sum(
            count
            for (subsystem, _), (count, _) in stats.items()
            if subsystem != SCHEDULER_SUBSYSTEM
        )
        lines = [
            f"kernel profile: {events} events, "
            f"{kernel_ns / 1e9:.3f}s in handlers + scheduler"
            + (
                f" ({kernel_ns / self.wall_ns:.1%} of {self.wall_ns / 1e9:.3f}s "
                f"profiled wall)"
                if self.wall_ns > 0
                else ""
            )
        ]
        lines.append("by subsystem:")
        subsystems = sorted(
            self.subsystem_totals().items(), key=lambda item: -item[1][1]
        )
        for name, (count, ns) in subsystems:
            share = ns / kernel_ns if kernel_ns else 0.0
            lines.append(
                f"  {name:<18s} {share:>6.1%}  {ns / 1e9:>9.3f}s  "
                f"{count:>9d} events"
            )
        ranked = sorted(stats.items(), key=lambda item: -item[1][1])[:top]
        lines.append(
            f"by handler (top {len(ranked)} of {len(stats)} by total time):"
        )
        cumulative = 0
        for (subsystem, handler), (count, ns) in ranked:
            cumulative += ns
            share = ns / kernel_ns if kernel_ns else 0.0
            cum_share = cumulative / kernel_ns if kernel_ns else 0.0
            mean_us = ns / count / 1e3 if count else 0.0
            lines.append(
                f"  {share:>6.1%} {cum_share:>6.1%}  {ns / 1e9:>8.3f}s  "
                f"{mean_us:>8.1f}us/ev  {count:>9d}  "
                f"{subsystem}:{handler}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Flamegraph export
    # ------------------------------------------------------------------
    def collapsed_stacks(self) -> str:
        """Collapsed-stack text (``frame;frame value``, values in µs).

        The format FlameGraph's ``flamegraph.pl`` and speedscope's
        "collapsed stacks" importer both read.  Stacks are the semantic
        dispatch hierarchy — root; subsystem; handler — plus one
        ``(outside-handlers)`` frame covering profiled wall time spent
        outside event handlers (queue management, scenario setup,
        result aggregation), so the flame's total width is the wall.
        """
        stats = self.stats()
        lines = []
        for (subsystem, handler), (_, ns) in sorted(stats.items()):
            if ns <= 0:
                continue
            lines.append(
                f"{FLAME_ROOT};{subsystem};{handler} {max(1, ns // 1000)}"
            )
        kernel_ns = sum(ns for _, ns in stats.values())
        idle_ns = self.wall_ns - kernel_ns
        if idle_ns > 0:
            lines.append(f"{FLAME_ROOT};(outside-handlers) {idle_ns // 1000}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_flamegraph(self, path: str) -> str:
        """Write :meth:`collapsed_stacks` to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.collapsed_stacks())
        return str(path)


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
_ACTIVE: Optional[KernelProfiler] = None

#: Run-record label stack (see :func:`label`).
_LABELS: List[str] = []

#: Set in worker processes whose parent campaign requested profiling
#: (travels through the worker initializer, start-method agnostic).
_REQUESTED = False


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


def configured_profiling() -> bool:
    """Whether handler attribution is requested for trials in this process.

    True when a handler-attributing profiler is active, when a parent
    campaign requested it via :func:`request_profiling`, or when the
    ``REPRO_PROFILE`` env knob is set (how the ``repro profile`` CLI
    reaches spawned workers).
    """
    return (
        (_ACTIVE is not None and _ACTIVE.handlers)
        or _REQUESTED
        or bool(os.environ.get("REPRO_PROFILE"))
    )


def request_profiling(flag: bool) -> None:
    """Mark this (worker) process as profiling its trials."""
    global _REQUESTED
    _REQUESTED = flag


def _clear_active() -> None:
    """Drop a profiler (and labels) inherited by a forked worker process."""
    global _ACTIVE
    _ACTIVE = None
    _LABELS.clear()
