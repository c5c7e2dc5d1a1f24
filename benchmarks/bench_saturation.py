"""§VI-B preamble — single-round PDD (no ack) saturation scan.

Paper shape: recall ≈0.35 (1 copy) / ≈0.55 (2 copies) at moderate loads,
degrading beyond ≈10,000 total entries.
"""

from repro.experiments.figures import saturation as figure


def test_saturation_scan(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("saturation", figure.render(rows))

    one_copy = [r["recall"] for r in rows if r["redundancy"] == 1]
    two_copies = [r["recall"] for r in rows if r["redundancy"] == 2]
    # A single unreliable round never reaches full recall on a 10x10 grid.
    assert all(r < 0.95 for r in one_copy)
    # Redundancy helps recall at equal load.
    assert sum(two_copies) > sum(one_copy)
    # Recall degrades toward the stress end of the load axis.
    assert one_copy[-1] <= one_copy[0] + 0.05
