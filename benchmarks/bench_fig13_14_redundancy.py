"""Figs. 13–14 — PDR vs MDR under chunk redundancy (the headline result).

Paper shape (20 MB item): at one copy MDR is slightly better (no CDI
phase); as copies multiply MDR's latency/overhead grow ≈linearly while
PDR stays flat or improves, ending around half of MDR's cost.
"""

from repro.experiments.figures import fig13_14_redundancy as figure


def test_fig13_14_pdr_vs_mdr(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig13_14", figure.render(rows))

    pdr = {r["redundancy"]: r for r in rows if r["method"] == "pdr"}
    mdr = {r["redundancy"]: r for r in rows if r["method"] == "mdr"}
    assert all(r["recall"] > 0.95 for r in rows)
    # MDR grows with redundancy...
    assert mdr[5]["overhead_mb"] > mdr[1]["overhead_mb"] * 1.5
    # ...while PDR stays flat or decreases...
    assert pdr[5]["overhead_mb"] <= pdr[1]["overhead_mb"] * 1.2
    # ...so at high redundancy PDR costs at most ~half of MDR.
    assert pdr[5]["overhead_mb"] < mdr[5]["overhead_mb"] * 0.6
    assert pdr[5]["latency_s"] < mdr[5]["latency_s"]
