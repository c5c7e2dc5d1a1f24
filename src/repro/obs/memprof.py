"""Memory telemetry: tracemalloc snapshots at experiment phase boundaries.

Turned on by ``ObsConfig(memory=True)`` (``repro <figure> --memory``),
the activation's :class:`MemoryTelemetry` records a tracemalloc snapshot
each time the experiment crosses a phase boundary — scenario setup, each
discovery round, retrieval start — and attributes the allocation delta
between consecutive snapshots to the ``repro`` subsystem (by allocating
filename) that grew most.

Instrumentation sites call the module-level :func:`memory_phase` hook,
which is a no-op (one look at the active config) unless memory telemetry
is on, so the hook can sit on phase boundaries — never inside event hot
paths — without taxing normal runs.  Boundary sites:

* ``repro.experiments.scenario`` — ``"setup"`` once a world is built;
* ``repro.core.rounds`` — ``"round_N_begin"`` / ``"round_N_end"`` per
  discovery round;
* ``repro.core.consumer`` — ``"discovery"`` / ``"retrieval"`` /
  ``"mdr_retrieval"`` when sessions start.

Phases are recorded in the process that crosses them, so memory
telemetry cannot follow trials into worker processes: a campaign with
``jobs>1`` refuses it (the CLI runs ``--memory`` with one job unless
``--jobs`` is given).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def _subsystem_of_filename(filename: str) -> str:
    """Map an allocating file to a subsystem label.

    ``.../src/repro/net/medium.py`` → ``net.medium``; files outside the
    package collapse to ``(stdlib/other)`` so noise stays in one bucket.
    """
    normalized = filename.replace("\\", "/")
    marker = "/repro/"
    index = normalized.rfind(marker)
    if index < 0:
        return "(stdlib/other)"
    tail = normalized[index + len(marker):]
    parts = [part for part in tail.split("/") if part]
    if not parts:
        return "repro"
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1] or ["repro"]
    return ".".join(parts[:2])


@dataclass
class PhaseRecord:
    """Memory state at one phase boundary.

    Attributes:
        name: Phase label (``setup``, ``round_1_end``, ``retrieval`` ...).
        current_kb: Traced bytes currently allocated, in KiB.
        peak_kb: Peak traced KiB since the previous boundary
            (``tracemalloc.reset_peak`` runs at each boundary).
        growth: Per-subsystem allocation delta since the previous
            boundary as ``(subsystem, delta_kb, delta_blocks)``, largest
            growth first, shrinkers included (negative deltas).
    """

    name: str
    current_kb: float
    peak_kb: float
    growth: List[Tuple[str, float, int]] = field(default_factory=list)


class MemoryTelemetry:
    """Phase-boundary tracemalloc capture with subsystem attribution.

    Args:
        top: How many subsystems to keep per phase delta.
    """

    def __init__(self, top: int = 8) -> None:
        self.top = top
        self.phases: List[PhaseRecord] = []
        self._previous: Optional[tracemalloc.Snapshot] = None
        self._started_tracing = False

    def start(self) -> None:
        """Start tracing (unless already on) and take the base snapshot."""
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        self._previous = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()

    def stop(self) -> None:
        """Drop the base snapshot; stop tracing only if :meth:`start` began it."""
        self._previous = None
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracing = False

    def phase(self, name: str) -> PhaseRecord:
        """Record a boundary: snapshot, diff vs the previous one."""
        current_bytes, peak_bytes = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
        growth: Dict[str, List[float]] = {}
        if self._previous is not None:
            for diff in snapshot.compare_to(self._previous, "filename"):
                frame = diff.traceback[0] if diff.traceback else None
                filename = frame.filename if frame else ""
                if filename.startswith("<"):
                    continue  # <frozen importlib>, <string>, ...
                subsystem = _subsystem_of_filename(filename)
                entry = growth.setdefault(subsystem, [0.0, 0])
                entry[0] += diff.size_diff
                entry[1] += diff.count_diff
        ranked = sorted(growth.items(), key=lambda item: -abs(item[1][0]))
        record = PhaseRecord(
            name=name,
            current_kb=current_bytes / 1024.0,
            peak_kb=peak_bytes / 1024.0,
            growth=[
                (subsystem, delta_bytes / 1024.0, int(delta_blocks))
                for subsystem, (delta_bytes, delta_blocks) in ranked[: self.top]
            ],
        )
        self.phases.append(record)
        self._previous = snapshot
        tracemalloc.reset_peak()
        return record

    def summary(self) -> Dict[str, object]:
        """Flat roll-up: phase count, peak, hottest allocating subsystem."""
        peak_kb = max((record.peak_kb for record in self.phases), default=0.0)
        totals: Dict[str, float] = {}
        for record in self.phases:
            for subsystem, delta_kb, _ in record.growth:
                if delta_kb > 0:
                    totals[subsystem] = totals.get(subsystem, 0.0) + delta_kb
        hot = max(totals, key=lambda name: totals[name]) if totals else ""
        return {
            "phases": len(self.phases),
            "peak_traced_kb": round(peak_kb, 1),
            "hot_allocator": hot,
        }

    def render(self) -> str:
        """Per-phase table: live/peak KiB plus top allocator deltas."""
        if not self.phases:
            return "memory telemetry: no phase boundaries crossed"
        lines = [f"memory telemetry ({len(self.phases)} phase boundaries):"]
        for record in self.phases:
            lines.append(
                f"  {record.name:<22s} live {record.current_kb:>9.1f} KiB"
                f"  peak {record.peak_kb:>9.1f} KiB"
            )
            for subsystem, delta_kb, delta_blocks in record.growth[:4]:
                sign = "+" if delta_kb >= 0 else ""
                lines.append(
                    f"      {subsystem:<20s} {sign}{delta_kb:>9.1f} KiB"
                    f"  {delta_blocks:+d} blocks"
                )
        return "\n".join(lines)


def memory_phase(name: str) -> None:
    """Record a phase boundary if memory telemetry is on (else a no-op)."""
    from repro.obs.config import active

    obs = active("memory")
    if obs is not None:
        obs.memory.phase(name)
