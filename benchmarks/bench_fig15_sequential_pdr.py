"""Fig. 15 — PDR with sequential consumers.

Paper shape (20 MB): recall 100%; latency 46.1 → 38.1 s and overhead
54.22 → 23.11 MB from the 1st to the 5th consumer (chunks get cached
progressively closer).
"""

from repro.experiments.figures import fig15_sequential_pdr as figure


def test_fig15_sequential_pdr(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig15", figure.render(rows))

    assert all(r["recall"] > 0.95 for r in rows)
    # Cached copies cut later consumers' overhead markedly (Fig. 15's
    # 54 → 23 MB drop).
    assert rows[-1]["overhead_mb"] < rows[0]["overhead_mb"] * 0.8
