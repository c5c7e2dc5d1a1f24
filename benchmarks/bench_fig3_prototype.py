"""Fig. 3 — single-hop reception: raw UDP vs leaky bucket vs +ack.

Paper shape: raw ≈10–14%; bucket 40–90% falling with senders; +ack 85–99%.
"""

from repro.experiments.figures import fig3_prototype as figure


def test_fig3_reception_series(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig3", figure.render(rows))

    by_mode = {}
    for row in rows:
        by_mode.setdefault(row["mode"], []).append(row["reception"])
    # Shape assertions from the paper.
    assert max(by_mode["raw"]) < 0.45, "raw UDP must overflow the OS buffer"
    assert by_mode["bucket"][0] > 0.9, "single sender with bucket ≈ perfect"
    assert by_mode["bucket"][-1] < by_mode["bucket"][0], "bucket degrades with senders"
    for acked, bucket in zip(by_mode["bucket_ack"], by_mode["bucket"]):
        assert acked >= bucket - 0.05, "ack must not hurt reception"
    assert min(by_mode["bucket_ack"]) > 0.6, "ack recovers most losses"
