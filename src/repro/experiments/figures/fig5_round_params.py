"""Figure 5: multi-round PDD recall vs window T, for T_d ∈ {0, 0.3}."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.rounds import RoundConfig
from repro.experiments.figures.common import Claim, pdd_experiment, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep

DEFAULT_WINDOWS = (0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_TDS = (0.0, 0.3)


def _trial(point: Dict[str, object], seed: int) -> Dict[str, float]:
    """One seeded run at one (T, T_d) point (module-level: picklable)."""
    outcome = pdd_experiment(
        seed,
        rows=point["rows_cols"],
        cols=point["rows_cols"],
        metadata_count=point["metadata_count"],
        round_config=RoundConfig(
            window_s=point["window"], stop_ratio=0.0, continue_ratio=point["td"]
        ),
        sim_cap_s=180.0,
    )
    return {
        "recall": outcome.first.recall,
        "latency_s": outcome.first.result.latency,
        "overhead_mb": outcome.total_overhead_bytes / 1e6,
        "rounds": outcome.first.result.rounds,
    }


def run(
    windows: Sequence[float] = DEFAULT_WINDOWS,
    tds: Sequence[float] = DEFAULT_TDS,
    seeds: Optional[Sequence[int]] = None,
    metadata_count: int = 5000,
    rows_cols: int = 10,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per (T, T_d): recall, latency, overhead, rounds."""
    points = [
        {
            "window": window,
            "td": td,
            "metadata_count": metadata_count,
            "rows_cols": rows_cols,
        }
        for td in tds
        for window in windows
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"T={p['window']} Td={p['td']}",
    )
    table = []
    for sweep_point in sweep:
        table.append(
            {
                "T_s": sweep_point.point["window"],
                "T_d": sweep_point.point["td"],
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
        metadata_count=scaled(5000, scale, minimum=400),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "Fig. 5 — multi-round PDD: recall vs T and T_d (T_r = 0)",
        ["T_s", "T_d", "recall", "latency_s", "overhead_mb", "rounds"],
        rows,
    )


def _by_window(rows: List[Dict[str, object]], td: float) -> Dict[float, Dict]:
    return {row["T_s"]: row for row in rows if row["T_d"] == td}


PAPER = (
    "(T_r = 0) recall rises with T and stabilises once T reaches 0.6–0.8 s; "
    "T_d = 0 reaches recall 1.0 while T_d = 0.3 stops early at ≈0.95; "
    "smaller T_d costs more rounds, latency and overhead (5.6 s/5.13 MB vs "
    "3.4 s/3.85 MB)."
)

CLAIMS = (
    Claim(
        "T_d = 0 with T = 1 s reaches recall > 0.97",
        lambda rows: _by_window(rows, 0.0)[1.0]["recall"] > 0.97,
    ),
    Claim(
        "T_d = 0.3 stops earlier: at T = 1 s its rounds ≤ T_d = 0's",
        lambda rows: _by_window(rows, 0.3)[1.0]["rounds"]
        <= _by_window(rows, 0.0)[1.0]["rounds"],
    ),
    Claim(
        "T_d = 0.3 is no better: at T = 1 s its recall ≤ T_d = 0's + 0.01",
        lambda rows: _by_window(rows, 0.3)[1.0]["recall"]
        <= _by_window(rows, 0.0)[1.0]["recall"] + 0.01,
    ),
    Claim(
        "a larger window helps: T_d = 0 recall at T = 1 s ≥ at T = 0.2 s",
        lambda rows: _by_window(rows, 0.0)[1.0]["recall"]
        >= _by_window(rows, 0.0)[0.2]["recall"],
    ),
)
