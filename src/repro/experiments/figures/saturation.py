"""§VI-B preamble: single-round PDD saturation scan (no ack)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.rounds import RoundConfig
from repro.experiments.figures.common import Claim, pdd_experiment, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep

DEFAULT_AMOUNTS = (2500, 5000, 10000, 20000)
DEFAULT_REDUNDANCIES = (1, 2)


def _trial(point: Dict[str, int], seed: int) -> Dict[str, float]:
    """One seeded single-round PDD run, no ack (module-level: picklable)."""
    outcome = pdd_experiment(
        seed,
        rows=point["rows_cols"],
        cols=point["rows_cols"],
        metadata_count=point["amount"],
        redundancy=point["redundancy"],
        round_config=RoundConfig(max_rounds=1),
        ack=False,
        redundancy_detection=True,
        sim_cap_s=120.0,
    )
    return {"recall": outcome.first.recall}


def run(
    amounts: Sequence[int] = DEFAULT_AMOUNTS,
    redundancies: Sequence[int] = DEFAULT_REDUNDANCIES,
    seeds: Optional[Sequence[int]] = None,
    rows_cols: int = 10,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """Recall of one round, no ack, per (amount, redundancy)."""
    points = [
        {"amount": amount, "redundancy": redundancy, "rows_cols": rows_cols}
        for redundancy in redundancies
        for amount in amounts
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"{p['amount']} entries r={p['redundancy']}",
    )
    table = []
    for sweep_point in sweep:
        table.append(
            {
                "entries": sweep_point.point["amount"],
                "redundancy": sweep_point.point["redundancy"],
                "recall": point_mean(sweep_point, "recall", 3),
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
        amounts=tuple(scaled(a, scale, minimum=200) for a in DEFAULT_AMOUNTS),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "§VI-B — single-round PDD (no ack): recall vs metadata amount",
        ["entries", "redundancy", "recall"],
        rows,
    )


def _recalls(rows: List[Dict[str, object]], redundancy: int) -> List[float]:
    return [row["recall"] for row in rows if row["redundancy"] == redundancy]


PAPER = (
    "without ack/retransmission a single round's recall sits ≈0.35 (one "
    "copy) / ≈0.55 (two copies, ≤5,000 entries) and degrades past ≈10,000 "
    "total entries, which motivates 5,000 entries as the normal load."
)

CLAIMS = (
    Claim(
        "one unreliable round never completes: every one-copy recall < 0.95",
        lambda rows: all(recall < 0.95 for recall in _recalls(rows, 1)),
    ),
    Claim(
        "a second copy helps: summed two-copy recall > summed one-copy recall",
        lambda rows: sum(_recalls(rows, 2)) > sum(_recalls(rows, 1)),
    ),
    Claim(
        "recall degrades with load: one-copy recall at the most entries "
        "≤ at the fewest + 0.05",
        lambda rows: _recalls(rows, 1)[-1] <= _recalls(rows, 1)[0] + 0.05,
    ),
)
