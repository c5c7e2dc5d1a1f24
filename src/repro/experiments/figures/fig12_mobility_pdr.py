"""Figure 12: PDR under real-world mobility (student center).

A 20 MB item retrieved while people join, leave and move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures.common import Claim, retrieval_experiment, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep
from repro.experiments.scenario import build_campus_scenario
from repro.experiments.workload import make_video_item
from repro.mobility.campus import STUDENT_CENTER, CampusScenario

MB = 1024 * 1024
DEFAULT_SCALES = (0.5, 1.0, 1.5, 2.0)
QUERY_START_S = 20.0


def _trial(point: Dict[str, object], seed: int) -> Dict[str, float]:
    """One seeded mobile retrieval at one frequency scale (picklable)."""
    scenario = build_campus_scenario(
        point["spec"],
        seed=seed,
        frequency_scale=point["scale"],
        duration_s=point["duration_s"],
    )
    item = make_video_item(point["item_size"])
    outcome = retrieval_experiment(
        seed,
        item,
        method="pdr",
        redundancy=point["redundancy"],
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
    item_size: int = 20 * MB,
    scenario_spec: CampusScenario = STUDENT_CENTER,
    redundancy: int = 2,
    duration_s: float = 240.0,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per mobility scale: recall, latency, overhead.

    Redundancy 2 by default: with single copies a leaving node can carry
    away the only copy of a chunk, which the paper's scenario avoids by
    having copies cached during prior sharing.

    ``store`` makes the sweep durable and resumable; the scenario spec
    dataclass is part of each trial's content address, so different
    specs never collide.
    """
    points = [
        {
            "spec": scenario_spec,
            "scale": scale,
            "item_size": item_size,
            "redundancy": redundancy,
            "duration_s": duration_s,
        }
        for scale in scales
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        label_fn=lambda p: f"{p['spec'].name} x{p['scale']}",
        store=store,
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


def reproduce(
    scale: float = 1.0,
    seeds: Optional[Sequence[int]] = None,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """The figure's rows at workload ``scale`` (1.0 = the paper's)."""
    return run(
        item_size=scaled(20 * MB, scale, minimum=2 * MB),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "Fig. 12 — PDR under mobility (student center, 20 MB item)",
        ["scenario", "mobility_scale", "recall", "latency_s", "overhead_mb"],
        rows,
    )


PAPER = (
    "latency ≈42–48 s, roughly flat across 0.5×–2× mobility; overhead "
    "24–27 MB; recall 100%."
)

CLAIMS = (
    Claim(
        "every recall > 0.9",
        lambda rows: all(row["recall"] > 0.9 for row in rows),
    ),
    Claim(
        "latency at 2× mobility < 2.5× the 0.5× latency + 10 s",
        lambda rows: rows[-1]["latency_s"] < rows[0]["latency_s"] * 2.5 + 10.0,
    ),
)
