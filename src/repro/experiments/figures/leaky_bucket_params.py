"""§V-4 parameter exploration: LeakingRate and BucketCapacity."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures.common import Claim, scaled
from repro.experiments.runner import point_mean, render_table, run_sweep
from repro.net.leaky_bucket import LeakyBucketConfig
from repro.phone.prototype import PrototypeConfig, run_prototype

#: LeakingRate sweep (bps), §V-4 explores 1–5 Mbps; we extend past the MAC
#: rate to show the cliff.
DEFAULT_LEAK_RATES = (1e6, 2e6, 3e6, 4e6, 4.5e6, 5e6, 6.5e6, 8e6)

#: BucketCapacity sweep (bytes).
DEFAULT_CAPACITIES = (
    100 * 1024,
    300 * 1024,
    600 * 1024,
    1200 * 1024,
    2400 * 1024,
)


def _trial(point: Dict[str, object], seed: int) -> Dict[str, float]:
    """One seeded bucket-mode prototype run (module-level: picklable)."""
    config = PrototypeConfig(
        n_senders=point["n_senders"],
        mode="bucket",
        packets_per_sender=point["packets_per_sender"],
        bucket=LeakyBucketConfig(
            capacity_bytes=point["capacity_bytes"],
            leak_rate_bps=point["leak_rate_bps"],
        ),
    )
    return {"reception": run_prototype(config, seed).reception_rate}


def run(
    leak_rates: Sequence[float] = DEFAULT_LEAK_RATES,
    capacities: Sequence[int] = DEFAULT_CAPACITIES,
    seeds: Optional[Sequence[int]] = None,
    packets_per_sender: int = 4000,
    n_senders: int = 2,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """Two sweeps: reception vs leak rate (at 300 KB) and vs capacity
    (at 4.5 Mbps), with concurrent senders so contention matters."""
    points = [
        {
            "sweep": "leak_rate",
            "capacity_bytes": 300 * 1024,
            "leak_rate_bps": leak_rate,
            "n_senders": n_senders,
            "packets_per_sender": packets_per_sender,
        }
        for leak_rate in leak_rates
    ]
    points += [
        {
            "sweep": "capacity",
            "capacity_bytes": capacity,
            "leak_rate_bps": 4.5e6,
            "n_senders": n_senders,
            "packets_per_sender": packets_per_sender,
        }
        for capacity in capacities
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: (
            f"{p['sweep']} {p['leak_rate_bps'] / 1e6:g}Mbps"
            f"/{p['capacity_bytes'] // 1024}KB"
        ),
    )
    rows = []
    for sweep_point in sweep:
        point = sweep_point.point
        rows.append(
            {
                "sweep": point["sweep"],
                "leak_mbps": round(point["leak_rate_bps"] / 1e6, 1),
                "capacity_kb": point["capacity_bytes"] // 1024,
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
        # Sustained pressure is needed for the leak-rate cliff to show.
        packets_per_sender=scaled(4000, scale, minimum=4000),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "§V-4 — leaky bucket parameter exploration (reception rate)",
        ["sweep", "leak_mbps", "capacity_kb", "reception"],
        rows,
    )


def _sweep(rows: List[Dict[str, object]], sweep: str) -> List[Dict[str, object]]:
    return [row for row in rows if row["sweep"] == sweep]


def _at_capacity(rows: List[Dict[str, object]], capacity_kb: int) -> float:
    return next(
        row for row in _sweep(rows, "capacity") if row["capacity_kb"] == capacity_kb
    )["reception"]


PAPER = (
    "reception stays >97% as LeakingRate grows 1→5 Mbps until the rate "
    "exceeds what the radio can broadcast, then drops; a large "
    "BucketCapacity overestimates the OS buffer and lowers reception; best "
    "balance 300 KB / 4.5 Mbps."
)

CLAIMS = (
    Claim(
        "the lowest leak rate keeps reception > 0.9",
        lambda rows: _sweep(rows, "leak_rate")[0]["reception"] > 0.9,
    ),
    Claim(
        "leak rates past the MAC budget crush reception: at the highest "
        "rate < at the lowest − 0.1",
        lambda rows: _sweep(rows, "leak_rate")[-1]["reception"]
        < _sweep(rows, "leak_rate")[0]["reception"] - 0.1,
    ),
    Claim(
        "a 300 KB bucket receives at least as much as a 2400 KB one",
        lambda rows: _at_capacity(rows, 300) >= _at_capacity(rows, 2400),
    ),
)
