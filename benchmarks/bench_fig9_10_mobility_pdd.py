"""Figs. 9–10 — PDD under real-world mobility (student center + classrooms).

Paper shape: recall ≈100%, latency bounded (≈2 s at paper scale) and
overhead bounded across 0.5×–2× of the observed join/leave/move rates.
"""

from repro.experiments.figures import fig9_10_mobility_pdd as figure


def test_fig9_10_mobility_pdd(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig9_10", figure.render(rows))

    # Robustness: recall stays high at every churn level in both places.
    assert all(r["recall"] > 0.85 for r in rows)
    # Latency does not blow up at 2× mobility vs 0.5×.
    for scenario in ("student_center", "classrooms"):
        series = [r for r in rows if r["scenario"] == scenario]
        assert series[-1]["latency_s"] < series[0]["latency_s"] * 4 + 2.0
