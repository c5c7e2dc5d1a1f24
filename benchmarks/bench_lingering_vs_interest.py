"""Ablation: lingering queries vs one-shot CCN/NDN Interests (§VIII).

The paper's core protocol argument: "the Interest is removed upon one
single response message. Thus many Interest messages are needed to
retrieve all matching metadata entries. By setting appropriate expiration,
PDD incurs only one or a few lingering queries."  This bench measures
exactly that: queries sent, latency, and overhead for the same workload.
"""

from repro.core.consumer import DiscoverySession
from repro.core.interest import InterestDiscoverySession
from repro.experiments.figures.common import (
    experiment_device_config,
    pdd_experiment,
    scaled,
)
from repro.experiments.runner import render_table
from repro.experiments.scenario import build_grid_scenario
from repro.experiments.workload import distribute_metadata, generate_metadata


def _run_interest(seed: int, metadata_count: int) -> dict:
    scenario = build_grid_scenario(
        rows=7, cols=7, seed=seed, device_config=experiment_device_config()
    )
    entries = generate_metadata(metadata_count)
    distribute_metadata(scenario.devices, entries, scenario.workload_rng())
    session = InterestDiscoverySession(
        scenario.device(scenario.consumers[0]), interest_timeout_s=0.6
    )
    scenario.sim.schedule(0.0, session.start)
    scenario.sim.run(until=900.0)
    return {
        "queries": session.interests_sent,
        "recall": len(session.received) / metadata_count,
        "latency": session.latency,
        "overhead": scenario.stats.bytes_sent / 1e6,
    }


def test_lingering_vs_interest(benchmark, bench_seeds, bench_scale, record_table):
    metadata_count = scaled(2000, bench_scale, minimum=400)

    def run():
        rows = []
        pdd_stats = {"queries": [], "recall": [], "latency": [], "overhead": []}
        for seed in bench_seeds:
            outcome = pdd_experiment(
                seed, rows=7, cols=7, metadata_count=metadata_count,
                sim_cap_s=300.0,
            )
            pdd_stats["queries"].append(outcome.first.result.rounds)
            pdd_stats["recall"].append(outcome.first.recall)
            pdd_stats["latency"].append(outcome.first.result.latency)
            pdd_stats["overhead"].append(outcome.total_overhead_bytes / 1e6)
        interest_stats = {"queries": [], "recall": [], "latency": [], "overhead": []}
        for seed in bench_seeds:
            result = _run_interest(seed, metadata_count)
            interest_stats["queries"].append(result["queries"])
            interest_stats["recall"].append(result["recall"])
            interest_stats["latency"].append(result["latency"])
            interest_stats["overhead"].append(result["overhead"])
        for name, stats in (
            ("lingering (PDD)", pdd_stats),
            ("one-shot Interest", interest_stats),
        ):
            n = len(stats["queries"])
            rows.append(
                {
                    "scheme": name,
                    "queries": round(sum(stats["queries"]) / n, 1),
                    "recall": round(sum(stats["recall"]) / n, 3),
                    "latency_s": round(sum(stats["latency"]) / n, 2),
                    "overhead_mb": round(sum(stats["overhead"]) / n, 2),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        "ablation_lingering_vs_interest",
        render_table(
            "Ablation — lingering queries vs one-shot Interests (§VIII)",
            ["scheme", "queries", "recall", "latency_s", "overhead_mb"],
            rows,
        ),
    )
    lingering, interest = rows
    assert lingering["recall"] > 0.97
    assert interest["recall"] > 0.9
    # The §VIII claim: a few lingering queries vs many Interests.
    assert lingering["queries"] * 2 < interest["queries"]
    assert lingering["latency_s"] < interest["latency_s"]
