"""Unit tests for the shared experiment drivers."""

import pytest

from repro.core.rounds import RoundConfig
from repro.errors import ConfigurationError
from repro.experiments.figures.common import (
    experiment_device_config,
    pdd_experiment,
    retrieval_experiment,
)
from repro.experiments.workload import make_video_item

MB = 1024 * 1024


def test_invalid_mode_rejected():
    with pytest.raises(ConfigurationError):
        pdd_experiment(seed=1, rows=3, cols=3, metadata_count=10, mode="bogus")


def test_invalid_method_rejected():
    with pytest.raises(ConfigurationError):
        retrieval_experiment(
            seed=1, item=make_video_item(MB), method="bogus"
        )


def test_device_config_toggles():
    config = experiment_device_config(ack=False, redundancy_detection=False)
    assert not config.reliability.enabled
    assert not config.protocol.redundancy_detection
    default = experiment_device_config()
    assert default.reliability.enabled
    assert default.protocol.redundancy_detection


def test_single_consumer_outcome_shape():
    outcome = pdd_experiment(seed=1, rows=3, cols=3, metadata_count=30)
    assert len(outcome.consumers) == 1
    assert outcome.first is outcome.consumers[0]
    assert outcome.first.overhead_bytes == outcome.total_overhead_bytes


def test_sequential_mode_orders_sessions():
    outcome = pdd_experiment(
        seed=2, rows=4, cols=4, metadata_count=60,
        n_consumers=3, mode="sequential", sim_cap_s=200.0,
    )
    starts = [c.result.started_at for c in outcome.consumers]
    finishes = [c.result.finished_at for c in outcome.consumers]
    assert starts == sorted(starts)
    for i in range(len(starts) - 1):
        assert starts[i + 1] >= finishes[i]


def test_sequential_overheads_sum_to_total():
    outcome = pdd_experiment(
        seed=3, rows=4, cols=4, metadata_count=60,
        n_consumers=2, mode="sequential", sim_cap_s=200.0,
    )
    assert (
        sum(c.overhead_bytes for c in outcome.consumers)
        <= outcome.total_overhead_bytes
    )


def test_simultaneous_mode_starts_together():
    outcome = pdd_experiment(
        seed=4, rows=4, cols=4, metadata_count=60,
        n_consumers=3, mode="simultaneous", sim_cap_s=200.0,
    )
    starts = [c.result.started_at for c in outcome.consumers]
    assert max(starts) - min(starts) < 0.1  # small anti-sync jitter only


def test_mdr_default_window_scales_with_chunks():
    small = retrieval_experiment(
        seed=5, item=make_video_item(MB), method="mdr", rows=3, cols=3
    )
    # Implicit check: completes with the scaled default window.
    assert small.first.recall == 1.0


def test_round_config_override_respected():
    outcome = pdd_experiment(
        seed=6, rows=3, cols=3, metadata_count=30,
        round_config=RoundConfig(max_rounds=1),
    )
    assert outcome.first.result.rounds == 1


def test_simultaneous_overheads_split_not_duplicated():
    """Regression: single/simultaneous modes used to report the whole
    network's bytes_sent for *every* consumer, so summing per-consumer
    overhead double-counted each byte once per consumer."""
    outcome = pdd_experiment(
        seed=7, rows=4, cols=4, metadata_count=60,
        n_consumers=3, mode="simultaneous", sim_cap_s=200.0,
    )
    per_consumer = [c.overhead_bytes for c in outcome.consumers]
    assert sum(per_consumer) == outcome.total_overhead_bytes
    # an even split, up to the integer remainder
    assert max(per_consumer) - min(per_consumer) <= 1
    assert all(c.launched for c in outcome.consumers)


def test_single_consumer_gets_full_total():
    outcome = pdd_experiment(seed=8, rows=3, cols=3, metadata_count=30)
    assert outcome.first.overhead_bytes == outcome.total_overhead_bytes


def test_never_launched_sequential_consumer_is_flagged():
    """Regression: a sequential consumer whose turn never came before the
    simulation cap used to get overhead window [bytes_at_cap, total] = a
    real-looking 0-ish number with launched implied; now it is explicit."""
    outcome = pdd_experiment(
        seed=9, rows=4, cols=4, metadata_count=60,
        n_consumers=4, mode="sequential", sim_cap_s=3.0,
    )
    launched = [c for c in outcome.consumers if c.launched]
    skipped = [c for c in outcome.consumers if not c.launched]
    assert launched, "first consumer always launches"
    assert skipped, "cap of 3s cannot run four sequential discoveries"
    for consumer in skipped:
        assert consumer.overhead_bytes == 0
    assert (
        sum(c.overhead_bytes for c in launched) == outcome.total_overhead_bytes
    )
