"""Fig. 12 — PDR under mobility (student center, 20 MB item).

Paper shape: latency roughly flat (42–48 s) across 0.5×–2× mobility;
overhead bounded; recall 100%.
"""

from repro.experiments.figures import fig12_mobility_pdr as figure


def test_fig12_mobility_pdr(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig12", figure.render(rows))

    assert all(r["recall"] > 0.9 for r in rows)
    # Mobility robustness: latency at 2× within ~2.5× of the 0.5× point.
    latencies = [r["latency_s"] for r in rows]
    assert latencies[-1] < latencies[0] * 2.5 + 10.0
