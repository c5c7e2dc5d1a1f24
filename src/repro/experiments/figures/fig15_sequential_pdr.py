"""Figure 15: PDR with multiple *sequential* consumers.

Paper shape (20 MB item): recall 100% for every consumer; latency drops
46.1 s → 38.1 s from the 1st to the 5th consumer and overhead drops
sharply 54.22 MB → 23.11 MB, because chunks cached during earlier
retrievals sit much closer to later consumers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures.common import retrieval_experiment, scaled
from repro.experiments.runner import render_table, run_sweep
from repro.experiments.workload import make_video_item

MB = 1024 * 1024


def _trial(point: Dict[str, int], seed: int) -> List[Dict[str, float]]:
    """One seeded run; returns one dict per consumer position."""
    item = make_video_item(point["item_size"])
    outcome = retrieval_experiment(
        seed,
        item,
        method="pdr",
        rows=point["rows_cols"],
        cols=point["rows_cols"],
        redundancy=1,
        n_consumers=point["n_consumers"],
        mode="sequential",
        sim_cap_s=1200.0,
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
    item_size: int = 20 * MB,
    rows_cols: int = 10,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per consumer position, averaged over seeds."""
    point = {
        "n_consumers": n_consumers,
        "item_size": item_size,
        "rows_cols": rows_cols,
    }
    sweep = run_sweep(
        _trial,
        [point],
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"{p['n_consumers']} sequential pdr",
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
        item_size=scaled(20 * MB, scale, minimum=2 * MB),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "Fig. 15 — PDR with sequential consumers (20 MB item)",
        ["consumer", "recall", "latency_s", "overhead_mb"],
        rows,
    )
