"""Figures 9–10: PDD under real-world mobility (student center).

Mobility traces are generated from the paper's 8-hour observations and
the join/leave/move frequencies are scaled 0.5×–2×.  Paper shape: recall
stays ≈100% and latency within ≈2 s (overhead within ≈3 MB) across the
whole range; the classroom scenario behaves similarly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.rounds import RoundConfig
from repro.experiments.figures.common import pdd_experiment, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep
from repro.experiments.scenario import build_campus_scenario
from repro.mobility.campus import CLASSROOMS, STUDENT_CENTER, CampusScenario

DEFAULT_SCALES = (0.5, 1.0, 1.5, 2.0)

#: Discovery starts after the trace has run for a while, so joins/leaves
#: have already perturbed the initial placement.
QUERY_START_S = 20.0

def _trial(point: Dict[str, object], seed: int) -> Dict[str, float]:
    """One seeded mobile run at one frequency scale (picklable)."""
    scenario = build_campus_scenario(
        point["spec"],  # CampusScenario is a plain dataclass: picklable
        seed=seed,
        frequency_scale=point["scale"],
        duration_s=point["duration_s"],
    )
    outcome = pdd_experiment(
        seed,
        metadata_count=point["metadata_count"],
        round_config=RoundConfig(),
        scenario=scenario,
        start_at=QUERY_START_S,
        sim_cap_s=point["duration_s"] - QUERY_START_S,
    )
    return {
        "recall": outcome.first.recall,
        "latency_s": outcome.first.result.latency,
        "overhead_mb": outcome.total_overhead_bytes / 1e6,
    }


def run(
    scales: Sequence[float] = DEFAULT_SCALES,
    seeds: Optional[Sequence[int]] = None,
    metadata_count: int = 5000,
    scenario_spec: CampusScenario = STUDENT_CENTER,
    duration_s: float = 120.0,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per mobility scale: recall, latency, overhead."""
    points = [
        {
            "spec": scenario_spec,
            "scale": scale,
            "metadata_count": metadata_count,
            "duration_s": duration_s,
        }
        for scale in scales
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"{p['spec'].name} x{p['scale']}",
    )
    table = []
    for sweep_point in sweep:
        table.append(
            {
                "scenario": scenario_spec.name,
                "mobility_scale": sweep_point.point["scale"],
                "recall": point_mean(sweep_point, "recall", 3),
                "latency_s": point_mean(sweep_point, "latency_s", 2),
                "overhead_mb": point_mean(sweep_point, "overhead_mb", 2),
            }
        )
    return table


def run_both_locations(
    scales: Sequence[float] = DEFAULT_SCALES,
    seeds: Optional[Sequence[int]] = None,
    metadata_count: int = 5000,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """Student center (Figs. 9–10) plus the classroom variant."""
    rows = run(
        scales, seeds, metadata_count, STUDENT_CENTER, jobs=jobs, store=store
    )
    rows += run(
        scales, seeds, metadata_count, CLASSROOMS, jobs=jobs, store=store
    )
    return rows


def reproduce(
    scale: float = 1.0,
    seeds: Optional[Sequence[int]] = None,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """The figure's rows at workload ``scale`` (1.0 = the paper's)."""
    return run_both_locations(
        metadata_count=scaled(5000, scale, minimum=400),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "Figs. 9-10 — PDD under mobility (student center & classrooms)",
        ["scenario", "mobility_scale", "recall", "latency_s", "overhead_mb"],
        rows,
    )
