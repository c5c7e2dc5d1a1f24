"""Memory telemetry: phase snapshots, subsystem attribution, hooks."""

import tracemalloc

from repro.obs.config import ObsConfig, active
from repro.obs.memprof import MemoryTelemetry, _subsystem_of_filename, memory_phase


def test_subsystem_of_filename_mapping():
    assert (
        _subsystem_of_filename("/repo/src/repro/net/medium.py") == "net.medium"
    )
    assert _subsystem_of_filename("/repo/src/repro/bench.py") == "bench"
    assert (
        _subsystem_of_filename("/repo/src/repro/obs/__init__.py") == "obs"
    )
    assert _subsystem_of_filename("/usr/lib/python3/json/decoder.py") == (
        "(stdlib/other)"
    )


def test_memory_phase_is_noop_when_inactive():
    assert active("memory") is None
    memory_phase("setup")  # must not raise, must not start tracemalloc
    with ObsConfig(metrics=True).activate() as obs:
        memory_phase("setup")  # another instrument on: still a no-op
        assert not tracemalloc.is_tracing()
    assert obs.memory.phases == []


def test_activate_records_phases_and_stops_tracing():
    was_tracing = tracemalloc.is_tracing()
    with ObsConfig(memory=True).activate() as obs:
        assert tracemalloc.is_tracing()
        assert active("memory") is obs
        ballast = [object() for _ in range(1000)]
        memory_phase("alloc")
        del ballast
        memory_phase("free")
    assert active("memory") is None
    assert tracemalloc.is_tracing() == was_tracing
    telemetry = obs.memory
    assert [record.name for record in telemetry.phases] == ["alloc", "free"]
    alloc = telemetry.phases[0]
    assert alloc.current_kb > 0
    assert alloc.peak_kb >= alloc.current_kb
    assert len(alloc.growth) <= telemetry.top


def test_activation_leaves_tracing_it_did_not_start():
    tracemalloc.start()
    try:
        with ObsConfig(memory=True).activate():
            pass
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()


def test_top_bounds_subsystems_per_phase():
    telemetry = MemoryTelemetry(top=1)
    telemetry.start()
    try:
        ballast = [object() for _ in range(1000)]
        record = telemetry.phase("alloc")
        del ballast
    finally:
        telemetry.stop()
    assert len(record.growth) == 1


def test_render_and_summary():
    assert "no phase boundaries" in MemoryTelemetry().render()
    with ObsConfig(memory=True).activate() as obs:
        data = list(range(5000))
        memory_phase("grow")
        del data
    telemetry = obs.memory
    text = telemetry.render()
    assert "grow" in text
    assert "KiB" in text
    summary = telemetry.summary()
    assert summary["phases"] == 1
    assert summary["peak_traced_kb"] > 0


def test_experiment_crosses_phase_boundaries():
    # setup (scenario build) + discovery + per-round boundaries all fire.
    from repro.experiments.figures.common import pdd_experiment

    with ObsConfig(memory=True).activate() as obs:
        pdd_experiment(seed=1, rows=3, cols=3, metadata_count=10)
    names = [record.name for record in obs.memory.phases]
    assert "setup" in names
    assert "discovery" in names
    assert any(name.startswith("round_") for name in names)
