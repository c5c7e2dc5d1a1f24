"""Figure 4: single-round PDD recall vs network radius.

Grids from 3×3 to 11×11 (max hop count 1–5 from the central consumer),
keeping the average load at 50 entries per node.  Paper shape: recall
drops 100% → 72.3% as hops grow 1 → 5; latency/overhead grow from
0.3 s / 0.04 MB to 3.5 s / 1.71 MB.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.rounds import RoundConfig
from repro.experiments.figures.common import pdd_experiment, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep

DEFAULT_GRID_SIZES = (3, 5, 7, 9, 11)

#: §VI-B-1: "We keep the average metadata entries at each node to 50".
ENTRIES_PER_NODE = 50


def _trial(point: Dict[str, int], seed: int) -> Dict[str, float]:
    """One seeded run at one grid size (module-level: pool-picklable)."""
    size = point["size"]
    outcome = pdd_experiment(
        seed,
        rows=size,
        cols=size,
        metadata_count=point["entries_per_node"] * size * size,
        round_config=RoundConfig(max_rounds=1),
        ack=True,
        sim_cap_s=120.0,
    )
    return {
        "recall": outcome.first.recall,
        "latency_s": outcome.first.result.latency,
        "overhead_mb": outcome.total_overhead_bytes / 1e6,
    }


def run(
    grid_sizes: Sequence[int] = DEFAULT_GRID_SIZES,
    seeds: Optional[Sequence[int]] = None,
    entries_per_node: int = ENTRIES_PER_NODE,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per grid size: recall, latency, overhead of one round.

    ``store`` makes the sweep durable and resumable;
    ``entries_per_node`` is part of each point, so trials at different
    ``--scale`` values never collide in the store.
    """
    points = [
        {"size": size, "entries_per_node": entries_per_node}
        for size in grid_sizes
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        label_fn=lambda p: f"{p['size']}x{p['size']}",
        store=store,
    )
    table = []
    for sweep_point in sweep:
        size = sweep_point.point["size"]
        table.append(
            {
                "grid": f"{size}x{size}",
                "max_hops": (size - 1) // 2 if size > 1 else 0,
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
        entries_per_node=scaled(ENTRIES_PER_NODE, max(scale, 0.5), minimum=20),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "Fig. 4 — single-round PDD (with ack) vs grid size",
        ["grid", "max_hops", "recall", "latency_s", "overhead_mb"],
        rows,
    )
