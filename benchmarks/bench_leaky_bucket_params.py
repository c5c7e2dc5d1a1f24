"""§V-4 — leaky bucket parameter exploration (LeakingRate, BucketCapacity).

Paper shape: reception stays high until the leak rate exceeds the MAC
broadcast budget, then drops; oversized capacities overflow the OS buffer.
"""

from repro.experiments.figures import leaky_bucket_params as figure


def test_leaky_bucket_parameter_sweeps(
    benchmark, bench_seeds, bench_scale, record_table
):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("lbparams", figure.render(rows))

    leak_rows = [r for r in rows if r["sweep"] == "leak_rate"]
    cap_rows = [r for r in rows if r["sweep"] == "capacity"]
    # Low leak rates keep reception high...
    assert leak_rows[0]["reception"] > 0.9
    # ...and rates beyond the MAC budget crush it.
    assert leak_rows[-1]["reception"] < leak_rows[0]["reception"] - 0.1
    # The paper's 300 KB capacity outperforms a 2.4 MB one.
    best = next(r for r in cap_rows if r["capacity_kb"] == 300)
    worst = next(r for r in cap_rows if r["capacity_kb"] == 2400)
    assert best["reception"] >= worst["reception"]
