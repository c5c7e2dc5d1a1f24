#!/usr/bin/env python3
"""Data discovery in a live student center: mobility, joins and leaves.

Reproduces the paper's mobile scenario (§VI-B-2) at example scale: ~20
people congregate in a 120×120 m student center; every minute someone
joins, someone leaves, and several people wander.  A consumer discovers
all metadata while the population churns around it.

Run:  python examples/student_center_mobility.py
"""

from __future__ import annotations

from repro import DiscoverySession
from repro.experiments import build_campus_scenario, distribute_metadata, generate_metadata
from repro.mobility import STUDENT_CENTER


def main() -> None:
    scenario = build_campus_scenario(
        STUDENT_CENTER,
        seed=21,
        frequency_scale=1.0,
        duration_s=180.0,
    )
    trace = scenario.extras["trace"]
    print(
        f"student center: {len(trace.initial_nodes)} people initially, "
        f"{len(trace.joining_nodes)} join later, "
        f"{len(trace.events)} mobility events over {trace.duration_s:.0f}s"
    )

    entries = generate_metadata(1500)
    distribute_metadata(scenario.devices, entries, scenario.workload_rng())

    consumer = scenario.device(scenario.consumers[0])
    session = DiscoverySession(consumer)

    # Let the crowd churn for a while before the consumer asks.
    scenario.sim.schedule(20.0, session.start)
    scenario.sim.run(until=180.0)

    player = scenario.trace_player
    print(
        f"churn applied: {player.joins} joins, {player.leaves} leaves, "
        f"{player.moves} position updates"
    )
    recall = len(session.received) / len(entries)
    print(
        f"consumer {consumer.node_id}: recall {recall:.1%} "
        f"({len(session.received)}/{len(entries)} entries) in "
        f"{session.result.latency:.2f}s over {session.result.rounds} rounds"
    )
    print(f"message overhead: {scenario.stats.bytes_sent / 1e6:.2f} MB")

    print(
        "\nNote: entries held only by people who left before the query are\n"
        "unreachable by design — data walks away with its owner unless a\n"
        "cached copy stayed behind."
    )


if __name__ == "__main__":
    main()
