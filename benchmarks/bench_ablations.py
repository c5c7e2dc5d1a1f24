"""Ablations: what each PDS mechanism buys.

Not a paper figure — these isolate the design choices the paper motivates
qualitatively:

* **redundancy detection** (Bloom filters + en-route rewriting, §III-B-2)
  → cuts duplicate metadata transmissions when copies are plentiful;
* **per-hop ack/retransmission** (§V-1) → recall on a lossy medium;
* **opportunistic chunk caching** (§II-A) → cheaper repeat retrievals.
"""

from repro.core.rounds import RoundConfig
from repro.experiments.figures.common import (
    experiment_device_config,
    pdd_experiment,
    retrieval_experiment,
    scaled,
)
from repro.experiments.runner import render_table
from repro.experiments.workload import make_video_item

MB = 1024 * 1024


def test_ablation_redundancy_detection(benchmark, bench_seeds, bench_scale, record_table):
    """Bloom-filter rewriting vs none, at redundancy 3."""
    metadata_count = scaled(3000, bench_scale, minimum=400)

    def run():
        rows = []
        for enabled in (True, False):
            overheads, recalls = [], []
            for seed in bench_seeds:
                outcome = pdd_experiment(
                    seed,
                    metadata_count=metadata_count,
                    redundancy=3,
                    redundancy_detection=enabled,
                    sim_cap_s=240.0,
                )
                overheads.append(outcome.total_overhead_bytes / 1e6)
                recalls.append(outcome.first.recall)
            rows.append(
                {
                    "redundancy_detection": "on" if enabled else "off",
                    "recall": round(sum(recalls) / len(recalls), 3),
                    "overhead_mb": round(sum(overheads) / len(overheads), 2),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        "ablation_redundancy_detection",
        render_table(
            "Ablation — Bloom redundancy detection (metadata redundancy 3)",
            ["redundancy_detection", "recall", "overhead_mb"],
            rows,
        ),
    )
    on, off = rows
    assert on["recall"] > 0.95
    assert on["overhead_mb"] < off["overhead_mb"]


def test_ablation_ack_retransmission(benchmark, bench_seeds, bench_scale, record_table):
    """Single-round recall with and without per-hop acks (§VI-B-1)."""
    metadata_count = scaled(5000, bench_scale, minimum=500)

    def run():
        rows = []
        for ack in (True, False):
            recalls = []
            for seed in bench_seeds:
                outcome = pdd_experiment(
                    seed,
                    metadata_count=metadata_count,
                    round_config=RoundConfig(max_rounds=1),
                    ack=ack,
                    sim_cap_s=120.0,
                )
                recalls.append(outcome.first.recall)
            rows.append(
                {
                    "ack": "on" if ack else "off",
                    "recall": round(sum(recalls) / len(recalls), 3),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        "ablation_ack",
        render_table(
            "Ablation — per-hop ack/retransmission (single-round PDD)",
            ["ack", "recall"],
            rows,
        ),
    )
    on, off = rows
    assert on["recall"] >= off["recall"]


def test_ablation_chunk_caching(benchmark, bench_seeds, bench_scale, record_table):
    """Second retrieval cost with and without opportunistic caching."""
    item_size = scaled(5 * MB, bench_scale, minimum=1 * MB)

    def run():
        rows = []
        for caching in (True, False):
            config = experiment_device_config()
            if not caching:
                from dataclasses import replace

                config = replace(
                    config,
                    protocol=replace(
                        config.protocol,
                        cache_overheard_chunks=False,
                        cache_relayed_chunks=False,
                    ),
                )
            second_overheads = []
            for seed in bench_seeds:
                from repro.experiments.scenario import build_grid_scenario

                scenario = build_grid_scenario(
                    rows=7, cols=7, seed=seed, device_config=config, n_consumers=2
                )
                item = make_video_item(item_size)
                outcome = retrieval_experiment(
                    seed,
                    item,
                    scenario=scenario,
                    n_consumers=2,
                    mode="sequential",
                    sim_cap_s=900.0,
                )
                second_overheads.append(
                    outcome.consumers[1].overhead_bytes / 1e6
                )
            rows.append(
                {
                    "caching": "on" if caching else "off",
                    "second_consumer_overhead_mb": round(
                        sum(second_overheads) / len(second_overheads), 2
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        "ablation_caching",
        render_table(
            "Ablation — opportunistic chunk caching (2nd sequential consumer)",
            ["caching", "second_consumer_overhead_mb"],
            rows,
        ),
    )
    on, off = rows
    assert (
        on["second_consumer_overhead_mb"] <= off["second_consumer_overhead_mb"]
    )
