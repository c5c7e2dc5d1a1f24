"""Fig. 16 — PDR with simultaneous consumers.

Paper shape (20 MB): latency and overhead first increase with the number
of simultaneous consumers, then stabilise — same-direction consumers
share transmissions through overhearing and caching.
"""

from repro.experiments.figures import fig16_simultaneous_pdr as figure


def test_fig16_simultaneous_pdr(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig16", figure.render(rows))

    assert all(r["recall"] > 0.9 for r in rows)
    # Five simultaneous consumers cost far less than five solo retrievals.
    assert rows[-1]["overhead_mb"] < rows[0]["overhead_mb"] * 5
    # Stabilisation: the 4→5 step is much smaller than the 1→2 step.
    step_early = rows[1]["overhead_mb"] - rows[0]["overhead_mb"]
    step_late = rows[-1]["overhead_mb"] - rows[-2]["overhead_mb"]
    assert step_late <= max(step_early, rows[0]["overhead_mb"] * 0.6) + 1.0
