"""Figure 11: PDR latency and overhead vs data item size.

Paper shape: recall 100% for all sizes; latency and overhead grow
≈linearly from 8.2 s / 4.83 MB at 1 MB to 46.1 s / 54.22 MB at 20 MB;
overhead is ≈2–3× the item size (chunks travel several hops).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures.common import retrieval_experiment, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep
from repro.experiments.workload import make_video_item

MB = 1024 * 1024
DEFAULT_SIZES = (1 * MB, 5 * MB, 10 * MB, 20 * MB)


def _trial(point: Dict[str, int], seed: int) -> Dict[str, float]:
    """One seeded retrieval at one item size (module-level: picklable)."""
    item = make_video_item(point["size"])
    outcome = retrieval_experiment(
        seed,
        item,
        method="pdr",
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
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: Optional[Sequence[int]] = None,
    rows_cols: int = 10,
    redundancy: int = 1,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per item size: recall, latency, overhead, overhead ratio."""
    points = [
        {"size": size, "rows_cols": rows_cols, "redundancy": redundancy}
        for size in sizes
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"{p['size'] // MB} MB",
    )
    table = []
    for sweep_point in sweep:
        size = sweep_point.point["size"]
        mean_overhead = point_mean(sweep_point, "overhead_mb")
        table.append(
            {
                "size_mb": round(size / MB, 1),
                "recall": point_mean(sweep_point, "recall", 3),
                "latency_s": point_mean(sweep_point, "latency_s", 2),
                "overhead_mb": round(mean_overhead, 2),
                "overhead_ratio": round(mean_overhead / (size / 1e6), 2),
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
        sizes=tuple(scaled(s, scale, minimum=MB // 2) for s in DEFAULT_SIZES),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "Fig. 11 — PDR vs data item size",
        ["size_mb", "recall", "latency_s", "overhead_mb", "overhead_ratio"],
        rows,
    )
