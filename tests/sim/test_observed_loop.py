"""The observed dispatch loop with both instruments attached at once.

``Simulator.run`` has a plain loop and one observed loop that drives the
fingerprinter, the kernel profiler, or both.  Each instrument alone is
covered by its own suite; this checks that running them together changes
nothing either would see alone, and nothing the simulation computes.
"""

from contextlib import ExitStack

from repro.experiments.figures.common import pdd_experiment
from repro.obs.fingerprint import fingerprinting
from repro.obs.kernelprof import KernelProfiler

_CKPT_FIELDS = ("i", "digest", "t", "seq", "h")


def _drive(fingerprint: bool, profile: bool):
    """Run one small grid PDD scenario under the requested instruments."""
    kernel = KernelProfiler() if profile else None
    with ExitStack() as stack:
        config = (
            stack.enter_context(fingerprinting(checkpoint_every=64))
            if fingerprint
            else None
        )
        if kernel is not None:
            stack.enter_context(kernel.activate())
        outcome = pdd_experiment(seed=3, rows=4, cols=4, metadata_count=30)
    first = outcome.first
    outputs = (
        first.recall,
        first.result.latency,
        first.result.rounds,
        outcome.total_overhead_bytes,
        outcome.scenario.sim.events_processed,
        outcome.scenario.sim.peak_queue_depth,
        outcome.scenario.sim.now,
    )
    streams = None
    if config is not None:
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
            for stream in config.streams
        ]
    counts = None
    if kernel is not None:
        counts = {key: count for key, (count, _) in kernel.stats().items()}
    return outputs, streams, counts


def test_fingerprint_and_profile_together_match_each_alone():
    plain, _, _ = _drive(fingerprint=False, profile=False)
    fp_outputs, fp_streams, _ = _drive(fingerprint=True, profile=False)
    prof_outputs, _, prof_counts = _drive(fingerprint=False, profile=True)
    both_outputs, both_streams, both_counts = _drive(fingerprint=True, profile=True)

    # Same chained digest and checkpoint records as fingerprint alone.
    assert fp_streams
    assert all(checkpoints for _, checkpoints in fp_streams)
    assert both_streams == fp_streams
    # Same per-handler event counts as profile alone.
    assert prof_counts
    assert both_counts == prof_counts
    # Same simulation outputs as a plain run.
    assert fp_outputs == plain
    assert prof_outputs == plain
    assert both_outputs == plain
