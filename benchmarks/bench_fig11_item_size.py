"""Fig. 11 — PDR latency/overhead vs item size (1–20 MB).

Paper shape: recall 100%; latency and overhead ≈linear in size
(8.2 s / 4.83 MB at 1 MB → 46.1 s / 54.22 MB at 20 MB); overhead ratio
≈2–3× (chunks travel several hops).
"""

from repro.experiments.figures import fig11_item_size as figure


def test_fig11_item_size(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig11", figure.render(rows))

    assert all(r["recall"] == 1.0 for r in rows)
    latencies = [r["latency_s"] for r in rows]
    overheads = [r["overhead_mb"] for r in rows]
    assert latencies[-1] > latencies[0]
    assert overheads[-1] > overheads[0]
    # Overhead is a small multiple of the item size (2–3× in the paper).
    assert all(1.0 <= r["overhead_ratio"] <= 8.0 for r in rows)
