"""Smoke tests: every figure module runs at miniature scale and produces
rows with the expected columns.  Full-scale shape checks live in the
benchmarks and integration tests."""

import pytest

from repro.experiments.figures import (
    REGISTRY,
    fig3_prototype,
    fig4_grid_size,
    fig5_round_params,
    fig6_metadata_amount,
    fig7_sequential_consumers,
    fig8_simultaneous_consumers,
    fig11_item_size,
    fig13_14_redundancy,
    leaky_bucket_params,
    retransmission_params,
    saturation,
)

MB = 1024 * 1024
SEEDS = (1,)


def test_registry_covers_all_paper_figures():
    expected = {
        "fig3", "lbparams", "retrparams", "saturation", "fig4", "fig5",
        "fig6", "fig7", "fig8", "fig9_10", "fig11", "fig12", "fig13_14",
        "fig15", "fig16",
    }
    assert set(REGISTRY) == expected


def test_registry_modules_expose_run_reproduce_and_render():
    for module in REGISTRY.values():
        assert callable(module.run)
        assert callable(module.reproduce)
        assert callable(module.render)


def test_fig3_rows():
    rows = fig3_prototype.run(
        sender_counts=(1,), seeds=SEEDS, packets_per_sender=800
    )
    assert {r["mode"] for r in rows} == {"raw", "bucket", "bucket_ack"}
    assert all(0.0 <= r["reception"] <= 1.0 for r in rows)


def test_lbparams_rows():
    rows = leaky_bucket_params.run(
        leak_rates=(4.5e6,),
        capacities=(300 * 1024,),
        seeds=SEEDS,
        packets_per_sender=500,
    )
    assert {r["sweep"] for r in rows} == {"leak_rate", "capacity"}


def test_retrparams_rows():
    rows = retransmission_params.run(
        timeouts=(0.2,), max_retries=(4,), seeds=SEEDS, packets_per_sender=500
    )
    assert {r["sweep"] for r in rows} == {"retr_timeout", "max_retr"}


def test_saturation_rows():
    rows = saturation.run(
        amounts=(200,), redundancies=(1,), seeds=SEEDS, rows_cols=4
    )
    assert rows[0]["entries"] == 200
    assert 0.0 <= rows[0]["recall"] <= 1.0


def test_fig4_rows():
    rows = fig4_grid_size.run(grid_sizes=(3,), seeds=SEEDS, entries_per_node=10)
    assert rows[0]["grid"] == "3x3"
    assert rows[0]["max_hops"] == 1
    assert rows[0]["recall"] > 0.5


def test_fig5_rows():
    rows = fig5_round_params.run(
        windows=(0.5,), tds=(0.0,), seeds=SEEDS, metadata_count=100, rows_cols=4
    )
    assert rows[0]["T_s"] == 0.5
    assert rows[0]["rounds"] >= 1


def test_fig6_rows():
    rows = fig6_metadata_amount.run(amounts=(150,), seeds=SEEDS, rows_cols=4)
    assert rows[0]["entries"] == 150
    assert rows[0]["recall"] > 0.8


def test_fig7_rows():
    rows = fig7_sequential_consumers.run(
        n_consumers=2, seeds=SEEDS, metadata_count=100, rows_cols=4
    )
    assert [r["consumer"] for r in rows] == [1, 2]


def test_fig8_rows():
    rows = fig8_simultaneous_consumers.run(
        consumer_counts=(2,), seeds=SEEDS, metadata_count=100, rows_cols=4
    )
    assert rows[0]["consumers"] == 2
    assert rows[0]["recall"] > 0.8


def test_fig11_rows():
    rows = fig11_item_size.run(sizes=(1 * MB,), seeds=SEEDS, rows_cols=4)
    assert rows[0]["size_mb"] == 1.0
    assert rows[0]["recall"] == 1.0
    assert rows[0]["overhead_ratio"] > 0


def test_fig13_14_rows():
    rows = fig13_14_redundancy.run(
        redundancies=(1,), seeds=SEEDS, item_size=1 * MB, rows_cols=4
    )
    methods = {r["method"] for r in rows}
    assert methods == {"pdr", "mdr"}
    assert all(r["recall"] == 1.0 for r in rows)
