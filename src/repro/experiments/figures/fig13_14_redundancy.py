"""Figures 13–14: PDR vs MDR as chunk redundancy grows.

Paper shape (20 MB item): both reach 100% recall.  With a single copy MDR
is slightly *better* (10.7 s / 51.34 MB vs PDR's 13.5 s / 54.22 MB — no
CDI phase to pay for).  As redundancy grows 1→5, MDR's latency/overhead
rise almost linearly (27.6 s / 94.23 MB at 5 — duplicates on different
reverse paths), while PDR stays flat or slightly *decreases*
(11.9 s / 45.98 MB — the nearest copy gets closer).  The crossover is the
headline result of the two-phase design.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures.common import retrieval_experiment, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep
from repro.experiments.workload import make_video_item

MB = 1024 * 1024
DEFAULT_REDUNDANCIES = (1, 2, 3, 4, 5)


def _trial(point: Dict[str, object], seed: int) -> Dict[str, float]:
    """One seeded retrieval at one (method, redundancy) (picklable)."""
    item = make_video_item(point["item_size"])
    outcome = retrieval_experiment(
        seed,
        item,
        method=point["method"],
        rows=point["rows_cols"],
        cols=point["rows_cols"],
        redundancy=point["redundancy"],
        sim_cap_s=600.0,
    )
    return {
        "recall": outcome.first.recall,
        "latency_s": outcome.first.result.latency,
        "overhead_mb": outcome.total_overhead_bytes / 1e6,
    }


def run(
    redundancies: Sequence[int] = DEFAULT_REDUNDANCIES,
    seeds: Optional[Sequence[int]] = None,
    item_size: int = 20 * MB,
    rows_cols: int = 10,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per (method, redundancy)."""
    points = [
        {
            "method": method,
            "redundancy": redundancy,
            "item_size": item_size,
            "rows_cols": rows_cols,
        }
        for method in ("pdr", "mdr")
        for redundancy in redundancies
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"{p['method']} r={p['redundancy']}",
    )
    table = []
    for sweep_point in sweep:
        table.append(
            {
                "method": sweep_point.point["method"],
                "redundancy": sweep_point.point["redundancy"],
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
        "Figs. 13-14 — PDR vs MDR under chunk redundancy (20 MB item)",
        ["method", "redundancy", "recall", "latency_s", "overhead_mb"],
        rows,
    )
