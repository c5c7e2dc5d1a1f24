"""Figure 8: PDD with multiple *simultaneous* consumers.

Paper shape: recall stays 100%; per-consumer latency grows sublinearly
with the number of consumers and stabilises — one mixedcast transmission
serves several lingering queries at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.rounds import RoundConfig
from repro.experiments.figures.common import pdd_experiment, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep

DEFAULT_CONSUMER_COUNTS = (1, 2, 3, 4, 5)


def _trial(point: Dict[str, int], seed: int) -> Dict[str, float]:
    """One seeded run at one consumer count (module-level: picklable)."""
    outcome = pdd_experiment(
        seed,
        rows=point["rows_cols"],
        cols=point["rows_cols"],
        metadata_count=point["metadata_count"],
        round_config=RoundConfig(),
        n_consumers=point["count"],
        mode="simultaneous",
        sim_cap_s=300.0,
    )
    n = len(outcome.consumers)
    return {
        "recall": sum(c.recall for c in outcome.consumers) / n,
        "latency_s": sum(c.result.latency for c in outcome.consumers) / n,
        "overhead_mb": outcome.total_overhead_bytes / 1e6,
    }


def run(
    consumer_counts: Sequence[int] = DEFAULT_CONSUMER_COUNTS,
    seeds: Optional[Sequence[int]] = None,
    metadata_count: int = 5000,
    rows_cols: int = 10,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per consumer count: mean per-consumer recall/latency."""
    points = [
        {"count": count, "metadata_count": metadata_count, "rows_cols": rows_cols}
        for count in consumer_counts
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"{p['count']} simultaneous",
    )
    table = []
    for sweep_point in sweep:
        table.append(
            {
                "consumers": sweep_point.point["count"],
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
        metadata_count=scaled(5000, scale, minimum=400),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "Fig. 8 — PDD with simultaneous consumers",
        ["consumers", "recall", "latency_s", "overhead_mb"],
        rows,
    )
