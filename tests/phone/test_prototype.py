"""Behavioural tests for the single-hop prototype harness (§V-4, Fig. 3).

These use reduced workloads; the full-scale figures come from the bench.
"""

import pytest

from repro.errors import ConfigurationError
from repro.net.leaky_bucket import LeakyBucketConfig
from repro.net.reliability import ReliabilityConfig
from repro.phone.prototype import MODES, PrototypeConfig, run_prototype


def run(mode, n_senders=1, packets=3000, seed=1, **kwargs):
    config = PrototypeConfig(
        n_senders=n_senders, mode=mode, packets_per_sender=packets, **kwargs
    )
    return run_prototype(config, seed)


def test_modes_constant():
    assert MODES == ("raw", "bucket", "bucket_ack")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PrototypeConfig(mode="bogus")
    with pytest.raises(ConfigurationError):
        PrototypeConfig(n_senders=0)
    with pytest.raises(ConfigurationError):
        PrototypeConfig(packets_per_sender=0)


def test_raw_mode_overflows_like_the_paper():
    """Raw UDP: buffer overflow crushes reception (§V-2: ≈14%)."""
    result = run("raw", packets=6000)
    assert result.reception_rate < 0.35
    assert result.stats.frames_dropped_buffer > 0


def test_raw_mode_first_buffer_worth_received():
    """The first ≈658 packets fit the buffer and arrive."""
    result = run("raw", packets=600)
    assert result.reception_rate > 0.9


def test_bucket_single_sender_near_perfect():
    result = run("bucket")
    assert result.reception_rate > 0.9


def test_bucket_degrades_with_contention():
    solo = run("bucket", n_senders=1).reception_rate
    crowded = run("bucket", n_senders=4, packets=2500).reception_rate
    assert crowded < solo - 0.2


def test_ack_mode_recovers_contention_losses():
    bucket_only = run("bucket", n_senders=3, packets=2500).reception_rate
    with_ack = run("bucket_ack", n_senders=3, packets=2500).reception_rate
    assert with_ack > bucket_only
    assert with_ack > 0.9


def test_fig3_ordering_holds():
    """raw < bucket < bucket_ack for 2 concurrent senders."""
    raw = run("raw", n_senders=2, packets=4000).reception_rate
    bucket = run("bucket", n_senders=2, packets=4000).reception_rate
    acked = run("bucket_ack", n_senders=2, packets=4000).reception_rate
    assert raw < bucket < acked


def test_excessive_leak_rate_hurts_reception():
    """§V-4: leaking faster than the MAC can broadcast causes overflow."""
    good = run(
        "bucket",
        bucket=LeakyBucketConfig(capacity_bytes=300 * 1024, leak_rate_bps=4.5e6),
    ).reception_rate
    bad = run(
        "bucket",
        bucket=LeakyBucketConfig(capacity_bytes=300 * 1024, leak_rate_bps=12e6),
    ).reception_rate
    assert bad < good


def test_oversized_bucket_capacity_hurts_reception():
    """§V-4: a capacity above the real OS buffer lets bursts overflow."""
    good = run(
        "bucket",
        bucket=LeakyBucketConfig(capacity_bytes=300 * 1024, leak_rate_bps=4.5e6),
    ).reception_rate
    bad = run(
        "bucket",
        n_senders=2,
        bucket=LeakyBucketConfig(capacity_bytes=3_000_000, leak_rate_bps=4.5e6),
    ).reception_rate
    assert bad < good


def test_more_retries_improve_reception():
    few = run(
        "bucket_ack",
        n_senders=3,
        packets=2000,
        reliability=ReliabilityConfig(retr_timeout_s=0.2, max_retransmissions=1),
    ).reception_rate
    many = run(
        "bucket_ack",
        n_senders=3,
        packets=2000,
        reliability=ReliabilityConfig(retr_timeout_s=0.2, max_retransmissions=6),
    ).reception_rate
    assert many >= few


def test_goodput_positive():
    result = run("bucket", packets=1000)
    assert result.goodput_bps > 0


def test_result_accounting_consistent():
    result = run("bucket_ack", packets=1000)
    assert result.received <= result.committed <= result.generated


def test_deterministic_per_seed():
    a = run("bucket", seed=5)
    b = run("bucket", seed=5)
    assert a.received == b.received
    assert a.committed == b.committed


def test_network_counters_land_in_the_simulator_registry():
    """``--metrics`` sees fig3's ``net.*`` counters through the
    simulator's own registry, the one the profiler watches."""
    from repro.obs.config import ObsConfig

    with ObsConfig(metrics=True).activate() as obs:
        result = run("bucket_ack", packets=200)
    registry = obs.profiler.registry()
    assert result.stats.frames_sent > 0
    assert registry.counter("net.frames_sent").value == result.stats.frames_sent
