"""Fig. 5 — multi-round PDD recall vs window T and threshold T_d.

Paper shape (T_r=0): recall rises with T and stabilises by ≈0.6–0.8 s;
T_d=0 reaches ≈1.0 while T_d=0.3 stops early; smaller T_d costs more
rounds/latency/overhead.
"""

from repro.experiments.figures import fig5_round_params as figure


def test_fig5_round_parameters(benchmark, bench_seeds, bench_scale, record_table):
    rows = benchmark.pedantic(
        figure.reproduce, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
    record_table("fig5", figure.render(rows))

    td0 = {r["T_s"]: r for r in rows if r["T_d"] == 0.0}
    td3 = {r["T_s"]: r for r in rows if r["T_d"] == 0.3}
    # T_d = 0 with a sufficient window reaches (almost) full recall.
    assert td0[1.0]["recall"] > 0.97
    # T_d = 0.3 stops earlier: fewer rounds, no better recall.
    assert td3[1.0]["rounds"] <= td0[1.0]["rounds"]
    assert td3[1.0]["recall"] <= td0[1.0]["recall"] + 0.01
    # Larger windows help recall relative to the smallest window.
    assert td0[1.0]["recall"] >= td0[0.2]["recall"]
