"""Fig. 6 — multi-round PDD vs metadata amount (5k → 20k entries).

Paper shape: recall stays ≈100% across the whole range; latency grows
sublinearly (5.6 s → 11.2 s); overhead grows ≈linearly (5.13 → 22.21 MB).
"""

from repro.experiments.figures import fig6_metadata_amount as figure


def test_fig6_metadata_amount(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig6", figure.render(rows))

    recalls = [r["recall"] for r in rows]
    latencies = [r["latency_s"] for r in rows]
    overheads = [r["overhead_mb"] for r in rows]
    assert all(r > 0.97 for r in recalls), "multi-round PDD stays complete"
    assert latencies[-1] > latencies[0], "latency grows with load"
    assert overheads[-1] > overheads[0] * 2, "overhead ≈ linear in load"
    # Sublinearity: 4x the entries costs less than ~4x the latency.
    assert latencies[-1] < latencies[0] * 5
