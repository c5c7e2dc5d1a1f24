"""Figure 6: multi-round PDD vs metadata amount (normal → stress load)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.rounds import RoundConfig
from repro.experiments.figures.common import Claim, pdd_experiment, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep

DEFAULT_AMOUNTS = (5000, 10000, 15000, 20000)


def _trial(point: Dict[str, int], seed: int) -> Dict[str, float]:
    """One seeded run at one metadata amount (module-level: picklable)."""
    outcome = pdd_experiment(
        seed,
        rows=point["rows_cols"],
        cols=point["rows_cols"],
        metadata_count=point["amount"],
        round_config=RoundConfig(),
        sim_cap_s=240.0,
    )
    return {
        "recall": outcome.first.recall,
        "latency_s": outcome.first.result.latency,
        "overhead_mb": outcome.total_overhead_bytes / 1e6,
        "rounds": outcome.first.result.rounds,
    }


def run(
    amounts: Sequence[int] = DEFAULT_AMOUNTS,
    seeds: Optional[Sequence[int]] = None,
    rows_cols: int = 10,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per metadata amount with the best controller parameters."""
    points = [{"amount": amount, "rows_cols": rows_cols} for amount in amounts]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"{p['amount']} entries",
    )
    table = []
    for sweep_point in sweep:
        table.append(
            {
                "entries": sweep_point.point["amount"],
                "recall": point_mean(sweep_point, "recall", 3),
                "latency_s": point_mean(sweep_point, "latency_s", 2),
                "overhead_mb": point_mean(sweep_point, "overhead_mb", 2),
                "rounds": point_mean(sweep_point, "rounds", 1),
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
        amounts=tuple(scaled(a, scale, minimum=300) for a in DEFAULT_AMOUNTS),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "Fig. 6 — multi-round PDD vs metadata amount",
        ["entries", "recall", "latency_s", "overhead_mb", "rounds"],
        rows,
    )


PAPER = (
    "recall 100% from 5,000 to 20,000 entries; latency grows sublinearly "
    "5.6 → 11.2 s; overhead grows ≈linearly 5.13 → 22.21 MB."
)

CLAIMS = (
    Claim(
        "multi-round PDD stays complete: every recall > 0.97",
        lambda rows: all(row["recall"] > 0.97 for row in rows),
    ),
    Claim(
        "latency grows with load: at the most entries > at the fewest",
        lambda rows: rows[-1]["latency_s"] > rows[0]["latency_s"],
    ),
    Claim(
        "overhead ≈linear in load: at the most entries > 2× at the fewest",
        lambda rows: rows[-1]["overhead_mb"] > rows[0]["overhead_mb"] * 2,
    ),
    Claim(
        "latency is sublinear: at 4× the entries < 5× the latency",
        lambda rows: rows[-1]["latency_s"] < rows[0]["latency_s"] * 5,
    ),
)
