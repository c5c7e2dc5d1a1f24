"""Fig. 8 — PDD with simultaneous consumers.

Paper shape: recall 100% throughout; per-consumer latency grows
sublinearly and stabilises (mixedcast shares transmissions).
"""

from repro.experiments.figures import fig8_simultaneous_consumers as figure


def test_fig8_simultaneous_consumers(
    benchmark, bench_seeds, bench_scale, record_table
):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig8", figure.render(rows))

    assert all(r["recall"] > 0.95 for r in rows)
    # Per-consumer latency grows sublinearly: five simultaneous consumers
    # finish in far less than five times one consumer's time (mixedcast
    # shares transmissions).
    assert rows[-1]["latency_s"] < rows[0]["latency_s"] * 5 * 0.8
    # Overhead stays within a small factor of five solo discoveries (at
    # paper scale, where response data dwarfs per-query Bloom filters, it
    # is strictly sublinear).
    assert rows[-1]["overhead_mb"] < rows[0]["overhead_mb"] * 8
