"""The fingerprinted dispatch loop under an active run profiler.

``Simulator.run`` has a plain loop and one observed loop that drives the
fingerprinter.  A run profiler never changes which loop runs; it only
reads the clock around ``run()``.  This checks that fingerprinting and
run profiling together change nothing either sees alone, and nothing
the simulation computes.
"""

from contextlib import ExitStack

from repro.experiments.figures.common import pdd_experiment
from repro.obs.config import ObsConfig
from repro.obs.kernelprof import KernelProfiler

_CKPT_FIELDS = ("i", "digest", "t", "seq", "h")


def _drive(fingerprint: bool, profile: bool):
    """Run one small grid PDD scenario under the requested instruments."""
    kernel = KernelProfiler() if profile else None
    with ExitStack() as stack:
        obs = (
            stack.enter_context(
                ObsConfig(fingerprint=True, fingerprint_every=64).activate()
            )
            if fingerprint
            else None
        )
        if kernel is not None:
            stack.enter_context(kernel.activate())
        outcome = pdd_experiment(seed=3, rows=4, cols=4, metadata_count=30)
    first = outcome.first
    sim = outcome.scenario.sim
    outputs = (
        first.recall,
        first.result.latency,
        first.result.rounds,
        outcome.total_overhead_bytes,
        sim.events_processed,
        sim.peak_queue_depth,
        sim.now,
    )
    streams = None
    if obs is not None:
        # Run ids come from a process-wide counter, so compare the
        # chained digests and checkpoint contents, not the ids.
        streams = [
            (
                stream.digest,
                [
                    tuple(record.get(field) for field in _CKPT_FIELDS)
                    for record in stream.records
                    if record["fp"] == "ckpt"
                ],
            )
            for stream in obs.streams
        ]
    if kernel is not None:
        # Every processed event is on exactly one run record.
        assert sum(r.events for r in kernel.records) == sim.events_processed
    return outputs, streams


def test_fingerprint_and_profile_together_match_each_alone():
    plain, _ = _drive(fingerprint=False, profile=False)
    fp_outputs, fp_streams = _drive(fingerprint=True, profile=False)
    prof_outputs, _ = _drive(fingerprint=False, profile=True)
    both_outputs, both_streams = _drive(fingerprint=True, profile=True)

    # Same chained digest and checkpoint records as fingerprint alone.
    assert fp_streams
    assert all(checkpoints for _, checkpoints in fp_streams)
    assert both_streams == fp_streams
    # Same simulation outputs as a plain run.
    assert fp_outputs == plain
    assert prof_outputs == plain
    assert both_outputs == plain
