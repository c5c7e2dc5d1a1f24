"""Unit tests for counters, gauges, histograms and the registry."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_inc_and_direct_assignment():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    counter.value = 42
    assert counter.value == 42


def test_gauge_tracks_extremes():
    gauge = Gauge("g")
    for value in (5.0, -2.0, 3.0):
        gauge.set(value)
    assert gauge.value == 3.0
    assert gauge.max_value == 5.0
    assert gauge.min_value == -2.0
    assert gauge.samples == 3


def test_histogram_buckets_and_stats():
    hist = Histogram("h", buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 1.0, 5.0, 50.0, 500.0):
        hist.observe(value)
    assert hist.count == 5
    assert hist.total == 556.5
    assert hist.min == 0.5
    assert hist.max == 500.0
    # inclusive upper bounds: 0.5 and 1.0 land in the first bucket
    assert hist.bucket_counts() == {
        "le_1": 2,
        "le_10": 1,
        "le_100": 1,
        "overflow": 1,
    }
    assert hist.quantile(0.5) == 10.0
    assert hist.quantile(1.0) == 500.0


def test_histogram_rejects_bad_buckets_and_quantiles():
    with pytest.raises(ConfigurationError):
        Histogram("h", buckets=())
    with pytest.raises(ConfigurationError):
        Histogram("h", buckets=(1.0, 1.0))
    hist = Histogram("h", buckets=(1.0,))
    with pytest.raises(ConfigurationError):
        hist.quantile(1.5)


def test_histogram_sorts_buckets():
    hist = Histogram("h", buckets=(10.0, 1.0))
    assert hist.buckets == (1.0, 10.0)


def test_registry_getters_are_idempotent():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    assert registry.gauge("y") is registry.gauge("y")
    assert registry.histogram("z") is registry.histogram("z", buckets=(99.0,))


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("frames").inc(3)
    registry.gauge("queue").set(7.0)
    registry.histogram("sizes", buckets=(10.0, 100.0)).observe(42.0)
    snap = registry.snapshot()
    assert snap["counters"] == {"frames": 3}
    assert snap["gauges"]["queue"]["max"] == 7.0
    hist = snap["histograms"]["sizes"]
    assert hist["count"] == 1
    assert hist["sum"] == 42.0
    assert hist["buckets"] == {"le_10": 0, "le_100": 1, "overflow": 0}


def test_registry_render_mentions_instruments():
    registry = MetricsRegistry()
    assert registry.render() == "(no metrics recorded)"
    registry.counter("frames").inc()
    registry.gauge("queue").set(1.0)
    registry.histogram("sizes").observe(2.0)
    text = registry.render()
    for token in ("counters:", "gauges:", "histograms:", "frames", "queue", "sizes"):
        assert token in text


def test_instruments_reset_in_place():
    counter = Counter("c")
    counter.inc(5)
    counter.reset()
    assert counter.value == 0

    gauge = Gauge("g")
    gauge.set(3.0)
    gauge.reset()
    assert gauge.samples == 0
    gauge.set(-1.0)
    assert gauge.max_value == -1.0  # extremes restart from scratch

    hist = Histogram("h", buckets=(1.0, 10.0))
    hist.observe(5.0)
    hist.reset()
    assert hist.count == 0
    assert hist.total == 0.0
    assert hist.bucket_counts() == {"le_1": 0, "le_10": 0, "overflow": 0}


def test_registry_reset_keeps_cached_references_valid():
    """Regression: Simulator.reset() used to leave stale counts behind;
    the fix zeroes instruments in place so holders keep recording."""
    registry = MetricsRegistry()
    counter = registry.counter("net.bytes")
    counter.inc(100)
    registry.reset()
    assert counter.value == 0
    counter.inc(7)  # the pre-reset reference still feeds the registry
    assert registry.counter("net.bytes").value == 7


def test_merge_snapshot_counters_gauges_histograms():
    a = MetricsRegistry()
    a.counter("c").inc(3)
    a.gauge("g").set(1.0)
    a.gauge("g").set(5.0)
    a.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
    a.histogram("h", buckets=(1.0, 10.0)).observe(50.0)

    b = MetricsRegistry()
    b.counter("c").inc(4)
    b.gauge("g").set(-2.0)
    b.histogram("h", buckets=(1.0, 10.0)).observe(5.0)

    b.merge_snapshot(a.snapshot())
    assert b.counter("c").value == 7
    assert b.gauge("g").max_value == 5.0
    assert b.gauge("g").min_value == -2.0
    assert b.gauge("g").samples == 3
    hist = b.histogram("h", buckets=(1.0, 10.0))
    assert hist.count == 3
    assert hist.bucket_counts() == {"le_1": 1, "le_10": 1, "overflow": 1}
    assert hist.min == 0.5
    assert hist.max == 50.0


def test_merge_snapshot_empty_into_fresh_registry():
    target = MetricsRegistry()
    source = MetricsRegistry()
    source.counter("c")
    source.gauge("g")
    source.histogram("h", buckets=(1.0,))
    target.merge_snapshot(source.snapshot())
    # untouched instruments do not pollute extremes or samples
    assert target.counter("c").value == 0
    assert target.gauge("g").samples == 0
    assert target.histogram("h", buckets=(1.0,)).count == 0


def test_merge_snapshot_rejects_bucket_mismatch():
    a = MetricsRegistry()
    a.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
    b = MetricsRegistry()
    b.histogram("h", buckets=(1.0, 3.0)).observe(1.5)
    with pytest.raises(ConfigurationError):
        b.merge_snapshot(a.snapshot())


def test_merge_snapshot_exact_bounds_roundtrip():
    """Regression: bounds used to be recovered from 'le_<bound:g>' keys,
    which are rounded to 6 significant digits — 1048576 came back as
    1048580 and every merge of byte-sized buckets mismatched."""
    a = MetricsRegistry()
    a.histogram("h", buckets=(1048576.0, 2097152.0)).observe(1.0)
    b = MetricsRegistry()
    b.merge_snapshot(a.snapshot())
    merged = b.histogram("h", buckets=(1048576.0, 2097152.0))
    assert merged.count == 1


# ----------------------------------------------------------------------
# Gauge time-weighted mean
# ----------------------------------------------------------------------
def test_gauge_time_weighted_mean_integrates_previous_value():
    gauge = Gauge("g")
    gauge.set(10.0, now=0.0)  # no span yet: first timed set
    gauge.set(0.0, now=2.0)   # 10 held for 2s
    gauge.set(4.0, now=4.0)   # 0 held for 2s
    # area = 10*2 + 0*2 = 20 over 4s
    assert gauge.area == 20.0
    assert gauge.elapsed == 4.0
    assert gauge.time_weighted_mean() == 5.0


def test_gauge_untimed_sets_leave_twm_zero():
    gauge = Gauge("g")
    gauge.set(7.0)
    gauge.set(3.0)
    assert gauge.time_weighted_mean() == 0.0
    assert gauge.elapsed == 0.0


def test_gauge_reset_clears_time_accumulators():
    gauge = Gauge("g")
    gauge.set(5.0, now=0.0)
    gauge.set(5.0, now=3.0)
    gauge.reset()
    assert gauge.area == 0.0
    assert gauge.elapsed == 0.0
    assert gauge.time_weighted_mean() == 0.0
    # A fresh timed series starts a new integral, uncontaminated.
    gauge.set(2.0, now=10.0)
    gauge.set(2.0, now=11.0)
    assert gauge.time_weighted_mean() == 2.0


def test_gauge_snapshot_carries_twm_fields():
    registry = MetricsRegistry()
    gauge = registry.gauge("queue")
    gauge.set(6.0, now=0.0)
    gauge.set(0.0, now=3.0)
    snap = registry.snapshot()["gauges"]["queue"]
    assert snap["twm"] == 6.0
    assert snap["area"] == 18.0
    assert snap["elapsed"] == 3.0


def test_merge_snapshot_adds_time_accumulators():
    worker_a = MetricsRegistry()
    worker_a.gauge("queue").set(4.0, now=0.0)
    worker_a.gauge("queue").set(4.0, now=1.0)  # area 4, elapsed 1
    worker_b = MetricsRegistry()
    worker_b.gauge("queue").set(1.0, now=0.0)
    worker_b.gauge("queue").set(1.0, now=3.0)  # area 3, elapsed 3
    parent = MetricsRegistry()
    parent.merge_snapshot(worker_a.snapshot())
    parent.merge_snapshot(worker_b.snapshot())
    merged = parent.gauge("queue")
    assert merged.area == 7.0
    assert merged.elapsed == 4.0
    assert merged.time_weighted_mean() == pytest.approx(7.0 / 4.0)


def test_render_mentions_twm_only_when_timed():
    registry = MetricsRegistry()
    registry.gauge("untimed").set(1.0)
    timed = registry.gauge("timed")
    timed.set(2.0, now=0.0)
    timed.set(2.0, now=1.0)
    lines = registry.render().splitlines()
    timed_line = next(line for line in lines if "timed" in line and "untimed" not in line)
    untimed_line = next(line for line in lines if "untimed" in line)
    assert "twm 2" in timed_line
    assert "twm" not in untimed_line


def test_merge_timed_snapshot_into_untimed_gauge_suppresses_twm():
    # The merge edge case: a live gauge sampled WITHOUT timestamps absorbs
    # a worker snapshot whose samples were all timed.  The merged elapsed
    # is positive, but the integral says nothing about the local samples,
    # so the render must not present a time-weighted mean.
    parent = MetricsRegistry()
    parent.gauge("queue").set(100.0)  # untimed local sample
    worker = MetricsRegistry()
    worker.gauge("queue").set(1.0, now=0.0)
    worker.gauge("queue").set(1.0, now=4.0)
    parent.merge_snapshot(worker.snapshot())
    gauge = parent.gauge("queue")
    assert gauge.elapsed == 4.0
    assert gauge.samples == 3
    assert gauge.timed_samples == 2
    assert not gauge.twm_valid
    queue_line = next(
        line for line in parent.render().splitlines() if "queue" in line
    )
    assert "twm" not in queue_line


def test_merge_timed_snapshots_all_timed_keeps_twm():
    # All-timed merges stay valid: twm covers every sample on both sides.
    parent = MetricsRegistry()
    parent.gauge("queue").set(2.0, now=0.0)
    parent.gauge("queue").set(2.0, now=2.0)
    worker = MetricsRegistry()
    worker.gauge("queue").set(4.0, now=0.0)
    worker.gauge("queue").set(4.0, now=2.0)
    parent.merge_snapshot(worker.snapshot())
    gauge = parent.gauge("queue")
    assert gauge.twm_valid
    assert gauge.time_weighted_mean() == pytest.approx(3.0)
    queue_line = next(
        line for line in parent.render().splitlines() if "queue" in line
    )
    assert "twm 3" in queue_line


def test_gauge_reset_clears_timed_samples():
    gauge = Gauge("g")
    gauge.set(5.0, now=0.0)
    gauge.reset()
    assert gauge.timed_samples == 0
    assert not gauge.twm_valid
