"""Figure 7: PDD with multiple *sequential* consumers.

Paper shape: every consumer reaches ≈100% recall; latency shrinks for
later consumers (5–7 s for the first two, then 4.8 s, 3.2 s, and only
0.2 s for the last, which had already cached >95% of entries through
overhearing).  Overhead follows the same trend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.rounds import RoundConfig
from repro.experiments.figures.common import pdd_experiment, scaled
from repro.experiments.runner import render_table, run_sweep


def _trial(point: Dict[str, int], seed: int) -> List[Dict[str, float]]:
    """One seeded run; returns one dict per consumer position."""
    outcome = pdd_experiment(
        seed,
        rows=point["rows_cols"],
        cols=point["rows_cols"],
        metadata_count=point["metadata_count"],
        round_config=RoundConfig(),
        n_consumers=point["n_consumers"],
        mode="sequential",
        sim_cap_s=400.0,
    )
    return [
        {
            "recall": consumer.recall,
            "latency": consumer.result.latency,
            "overhead": consumer.overhead_bytes / 1e6,
        }
        for consumer in outcome.consumers
    ]


def run(
    n_consumers: int = 5,
    seeds: Optional[Sequence[int]] = None,
    metadata_count: int = 5000,
    rows_cols: int = 10,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per consumer position (1st..nth), averaged over seeds."""
    point = {
        "n_consumers": n_consumers,
        "metadata_count": metadata_count,
        "rows_cols": rows_cols,
    }
    sweep = run_sweep(
        _trial,
        [point],
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"{p['n_consumers']} sequential",
    )
    per_seed = sweep[0].results
    table = []
    for index in range(n_consumers):
        recalls = [consumers[index]["recall"] for consumers in per_seed]
        latencies = [consumers[index]["latency"] for consumers in per_seed]
        overheads = [consumers[index]["overhead"] for consumers in per_seed]
        n = len(recalls)
        table.append(
            {
                "consumer": index + 1,
                "recall": round(sum(recalls) / n, 3) if n else float("nan"),
                "latency_s": round(sum(latencies) / n, 2) if n else float("nan"),
                "overhead_mb": round(sum(overheads) / n, 2) if n else float("nan"),
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
        "Fig. 7 — PDD with sequential consumers",
        ["consumer", "recall", "latency_s", "overhead_mb"],
        rows,
    )
