"""Figure 16: PDR with multiple *simultaneous* consumers."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures.common import Claim, retrieval_experiment, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep
from repro.experiments.workload import make_video_item

MB = 1024 * 1024
DEFAULT_CONSUMER_COUNTS = (1, 2, 3, 4, 5)


def _trial(point: Dict[str, int], seed: int) -> Dict[str, float]:
    """One seeded run at one consumer count (module-level: picklable)."""
    item = make_video_item(point["item_size"])
    outcome = retrieval_experiment(
        seed,
        item,
        method="pdr",
        rows=point["rows_cols"],
        cols=point["rows_cols"],
        redundancy=1,
        n_consumers=point["count"],
        mode="simultaneous",
        sim_cap_s=900.0,
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
    item_size: int = 20 * MB,
    rows_cols: int = 10,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per consumer count: mean per-consumer recall/latency."""
    points = [
        {"count": count, "item_size": item_size, "rows_cols": rows_cols}
        for count in consumer_counts
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"{p['count']} simultaneous pdr",
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
        item_size=scaled(20 * MB, scale, minimum=2 * MB),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "Fig. 16 — PDR with simultaneous consumers (20 MB item)",
        ["consumers", "recall", "latency_s", "overhead_mb"],
        rows,
    )


def _stabilises(rows: List[Dict[str, object]]) -> bool:
    """The last overhead step is much smaller than the first."""
    step_early = rows[1]["overhead_mb"] - rows[0]["overhead_mb"]
    step_late = rows[-1]["overhead_mb"] - rows[-2]["overhead_mb"]
    return step_late <= max(step_early, rows[0]["overhead_mb"] * 0.6) + 1.0


PAPER = (
    "(20 MB item) latency and overhead first increase with the number of "
    "simultaneous consumers, then stabilise: all consumers initially chase "
    "the same single copies, but consumers in the same direction share "
    "each transmission through overhearing and caching."
)

CLAIMS = (
    Claim(
        "every recall > 0.9",
        lambda rows: all(row["recall"] > 0.9 for row in rows),
    ),
    Claim(
        "5 simultaneous consumers' overhead < 5× one consumer's",
        lambda rows: rows[-1]["overhead_mb"] < rows[0]["overhead_mb"] * 5,
    ),
    Claim(
        "overhead growth flattens: the 4→5 step ≤ max(the 1→2 step, 0.6× "
        "one consumer's overhead) + 1 MB",
        _stabilises,
    ),
)
