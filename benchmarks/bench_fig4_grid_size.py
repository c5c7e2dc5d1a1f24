"""Fig. 4 — single-round PDD (with ack) vs grid size / hop count.

Paper shape: recall 100% → 72.3% as the grid grows 3×3 → 11×11 (1–5
hops); latency and overhead rise with network size.
"""

from repro.experiments.figures import fig4_grid_size as figure


def test_fig4_grid_size(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig4", figure.render(rows))

    recalls = [r["recall"] for r in rows]
    latencies = [r["latency_s"] for r in rows]
    overheads = [r["overhead_mb"] for r in rows]
    assert recalls[0] > 0.97, "one hop: everything is heard directly"
    assert recalls[-1] < recalls[0], "recall drops as hops grow"
    assert latencies[-1] > latencies[0]
    assert overheads[-1] > overheads[0]
