"""§V-4 — RetrTimeout / MaxRetrTime exploration.

Paper shape: reception improves with both knobs and plateaus beyond
≈0.2 s timeout and ≈4 retries.
"""

from repro.experiments.figures import retransmission_params as figure


def test_retransmission_parameter_sweeps(
    benchmark, bench_seeds, bench_scale, record_table
):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("retrparams", figure.render(rows))

    retries = {r["max_retr"]: r["reception"] for r in rows if r["sweep"] == "max_retr"}
    # More retries help, with diminishing returns (plateau by ~4).
    assert retries[4] > retries[0]
    assert retries[6] >= retries[4] - 0.05
    timeouts = [r["reception"] for r in rows if r["sweep"] == "retr_timeout"]
    assert max(timeouts) > 0.75
