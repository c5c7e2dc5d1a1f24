"""Fig. 7 — PDD with sequential consumers.

Paper shape: all ≈100% recall; latency falls from 5–7 s (first two) to
0.2 s for the last consumer, which had cached >95% before asking.
"""

from repro.experiments.figures import fig7_sequential_consumers as figure


def test_fig7_sequential_consumers(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig7", figure.render(rows))

    assert all(r["recall"] > 0.95 for r in rows)
    # Later consumers are faster thanks to overheard caching.
    assert rows[-1]["latency_s"] < rows[0]["latency_s"]
    assert rows[-1]["latency_s"] < sum(r["latency_s"] for r in rows[:2]) / 2
