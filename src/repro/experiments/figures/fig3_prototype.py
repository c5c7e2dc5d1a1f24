"""Figure 3: single-hop reception — raw UDP vs leaky bucket vs +ack.

Paper shape: raw ≈ 10–14% (internal buffer overflow); leaky bucket alone
40–90%, decreasing with concurrent senders; leaky bucket + ack 85–99%.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures.common import scaled
from repro.experiments.runner import point_mean, render_table, run_sweep
from repro.phone.prototype import MODES, PrototypeConfig, run_prototype

#: Fig. 3 x-axis: concurrent senders to one receiver phone.
DEFAULT_SENDER_COUNTS = (1, 2, 3, 4)


def _trial(point: Dict[str, object], seed: int) -> Dict[str, float]:
    """One seeded prototype run at one (mode, senders) (picklable)."""
    config = PrototypeConfig(
        n_senders=point["n_senders"],
        mode=point["mode"],
        packets_per_sender=point["packets_per_sender"],
    )
    return {"reception": run_prototype(config, seed).reception_rate}


def run(
    sender_counts: Sequence[int] = DEFAULT_SENDER_COUNTS,
    seeds: Optional[Sequence[int]] = None,
    packets_per_sender: int = 6000,
    jobs: int = 1,
    store: Optional[object] = None,
) -> List[Dict[str, object]]:
    """One row per (mode, sender count) with the mean reception rate."""
    points = [
        {
            "mode": mode,
            "n_senders": n_senders,
            "packets_per_sender": packets_per_sender,
        }
        for mode in MODES
        for n_senders in sender_counts
    ]
    sweep = run_sweep(
        _trial,
        points,
        seeds=seeds,
        jobs=jobs,
        store=store,
        label_fn=lambda p: f"{p['mode']} x{p['n_senders']}",
    )
    rows = []
    for sweep_point in sweep:
        rows.append(
            {
                "mode": sweep_point.point["mode"],
                "senders": sweep_point.point["n_senders"],
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
        # The raw-UDP overflow needs a steady-state workload several times
        # the OS buffer (≈658 packets); don't scale below that regime.
        packets_per_sender=scaled(6000, scale, minimum=6000),
        seeds=seeds,
        jobs=jobs,
        store=store,
    )


def render(rows: List[Dict[str, object]]) -> str:
    """The figure's table."""
    return render_table(
        "Fig. 3 — single-hop reception rate (raw / bucket / bucket+ack)",
        ["mode", "senders", "reception"],
        rows,
    )
