"""Unit tests for averaging the paper's metrics over seeds."""

import pytest

from repro.experiments.runner import SweepPoint, point_mean


def _point(*results):
    return SweepPoint(
        point={},
        label="p",
        results=tuple(results),
        seeds=tuple(range(1, len(results) + 1)),
    )


def test_aggregate_means():
    sweep_point = _point(
        {"recall": 1.0, "latency_s": 4.0}, {"recall": 0.5, "latency_s": 6.0}
    )
    assert point_mean(sweep_point, "recall") == pytest.approx(0.75)
    assert point_mean(sweep_point, "latency_s") == pytest.approx(5.0)
    assert point_mean(_point({"latency_s": 5.126}), "latency_s", 2) == 5.13
