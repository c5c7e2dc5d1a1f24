"""§V-4 parameter exploration: RetrTimeout and MaxRetrTime."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures.common import Claim, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep
from repro.net.reliability import ReliabilityConfig
from repro.phone.prototype import PrototypeConfig, run_prototype

DEFAULT_TIMEOUTS = (0.05, 0.1, 0.2, 0.3, 0.4)
DEFAULT_MAX_RETRIES = (0, 1, 2, 4, 6)


def _trial(point: Dict[str, object], seed: int) -> Dict[str, float]:
    """One seeded bucket+ack prototype run (module-level: picklable)."""
    config = PrototypeConfig(
        n_senders=point["n_senders"],
        mode="bucket_ack",
        packets_per_sender=point["packets_per_sender"],
        reliability=ReliabilityConfig(
            retr_timeout_s=point["retr_timeout_s"],
            max_retransmissions=point["max_retransmissions"],
        ),
    )
    return {"reception": run_prototype(config, seed).reception_rate}


def run(
    timeouts: Sequence[float] = DEFAULT_TIMEOUTS,
    max_retries: Sequence[int] = DEFAULT_MAX_RETRIES,
    seeds: Optional[Sequence[int]] = None,
    packets_per_sender: int = 4000,
    n_senders: int = 2,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """Two sweeps with the other knob held at the paper's best value."""
    points = [
        {
            "sweep": "retr_timeout",
            "retr_timeout_s": timeout,
            "max_retransmissions": 4,
            "n_senders": n_senders,
            "packets_per_sender": packets_per_sender,
        }
        for timeout in timeouts
    ]
    points += [
        {
            "sweep": "max_retr",
            "retr_timeout_s": 0.2,
            "max_retransmissions": retries,
            "n_senders": n_senders,
            "packets_per_sender": packets_per_sender,
        }
        for retries in max_retries
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: (
            f"{p['sweep']} t={p['retr_timeout_s']}"
            f" r={p['max_retransmissions']}"
        ),
    )
    rows = []
    for sweep_point in sweep:
        point = sweep_point.point
        rows.append(
            {
                "sweep": point["sweep"],
                "timeout_s": point["retr_timeout_s"],
                "max_retr": point["max_retransmissions"],
                "reception": point_mean(sweep_point, "reception", 3),
            }
        )
    return rows


def reproduce(
    scale: float = 1.0,
    seeds: Optional[Sequence[int]] = None,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """The figure's rows at workload ``scale`` (1.0 = the paper's)."""
    return run(
        # Contention losses need a sustained two-sender workload.
        packets_per_sender=scaled(4000, scale, minimum=4000),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "§V-4 — ack/retransmission parameter exploration (reception rate)",
        ["sweep", "timeout_s", "max_retr", "reception"],
        rows,
    )


def _by_retries(rows: List[Dict[str, object]]) -> Dict[int, float]:
    return {
        row["max_retr"]: row["reception"] for row in rows if row["sweep"] == "max_retr"
    }


PAPER = (
    "two concurrent senders → one receiver: reception improves with both "
    "knobs and plateaus beyond ≈0.2 s RetrTimeout and ≈4 retries."
)

CLAIMS = (
    Claim(
        "retries help: reception at 4 retries > at 0",
        lambda rows: _by_retries(rows)[4] > _by_retries(rows)[0],
    ),
    Claim(
        "returns diminish by 4 retries: reception at 6 ≥ at 4 − 0.05",
        lambda rows: _by_retries(rows)[6] >= _by_retries(rows)[4] - 0.05,
    ),
    Claim(
        "some RetrTimeout reaches reception > 0.75",
        lambda rows: max(
            row["reception"] for row in rows if row["sweep"] == "retr_timeout"
        )
        > 0.75,
    ),
)
