"""Outside-in benchmark of the PDS reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pdd_city --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
runs one instance untraced and once more with per-layer spans installed,
and prints the per-layer metrics.  The last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it record the environment, the output digest and the work counts.

The program is imported from ``src/`` next to this directory and is never
modified.  Every ``REPRO_*`` environment knob is cleared first, so jobs,
seeds, scale, stores and instruments are all at their defaults.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="minimum measuring time; passes repeat until it is used up",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true",
        help="reduced-size inputs, one instance (for perfbench/selftest.py)",
    )
    return parser.parse_args(argv)


def _pin_environment() -> List[str]:
    """Clear every REPRO_* knob; returns the names that were set."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path and check it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(cleared: List[str]) -> Dict[str, object]:
    from repro.obs.durable import repro_version

    return {
        "repro_version": f"repro {repro_version()}",  # what `repro --version` prints
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "cleared_env": cleared,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One execution of a workload on its instance seeds.

    Raw host times are kept apart from ``speed``, the probe's scale
    factor; the reported times are the scaled ones.
    """

    total_s: float
    excluded_s: float
    speed: float
    records: List[dict]
    layers_s: Dict[str, float] = field(default_factory=dict)
    layer_calls: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Scaled host time of the whole pass without the benchmark's checks."""
        return (self.total_s - self.excluded_s) * self.speed

    @property
    def sim_s(self) -> float:
        """Scaled host time of the experiments without their set-up."""
        return sum(r["host_s"] * r["speed"] for r in self.records)

    def per_instance(self, key: str) -> List[float]:
        """Scaled host time ``key`` (``host_s``/``setup_s``) per instance."""
        from perfbench.workloads import by_instance

        return [
            sum(r[key] * r["speed"] for r in records) for records in by_instance(self.records)
        ]


def run_pass(workload, seeds: List[int], small: bool, traced: bool) -> Pass:
    from perfbench.layers import Tracer
    from perfbench.probe import SpeedProbe
    from perfbench.workloads import Capture

    tracer = Tracer() if traced else None
    gc.collect()
    with SpeedProbe() as probe:
        capture = Capture(probe, tracer=tracer, time_setup=not traced)
        if tracer is not None:
            tracer.install()
        try:
            capture.install()
            try:
                start = perf_counter()
                workload.run(seeds, small)
                end = perf_counter()
            finally:
                capture.remove()
        finally:
            if tracer is not None:
                tracer.remove()
        speed = probe.factor(start, end)
    result = Pass(end - start, capture.excluded_s, speed, capture.records)
    if tracer is not None:
        if tracer.missing:
            print(f"perfbench: entry points not found: {tracer.missing}", file=sys.stderr)
        result.layers_s = {k: v * speed for k, v in tracer.layer_seconds().items()}
        result.layer_calls = tracer.layer_calls()
        result.counts = dict(tracer.counts)
    return result


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(passes: List[Pass]) -> Dict[str, dict]:
    """Times: the instances' mean (set-up: their median); simulated
    metrics: means over every session of the first pass."""
    from perfbench.workloads import simulated_metrics

    simulated = simulated_metrics(passes[0].records)
    return {
        "wall_s": _metric(statistics.fmean(t for p in passes for t in p.per_instance("host_s")), "s"),
        "setup_s": _metric(statistics.median(t for p in passes for t in p.per_instance("setup_s")), "s"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "recall": _metric(simulated["recall"], "ratio"),
        "sim_latency_s": _metric(simulated["sim_latency_s"], "sim_s"),
        "overhead_ratio": _metric(simulated["overhead_ratio"], "ratio"),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(pairs: List[tuple]) -> Dict[str, dict]:
    """Per-layer metrics: medians of times over the traced passes, work
    counts from the first (they repeat exactly)."""
    from perfbench.layers import LAYERS
    from perfbench.workloads import simulated_metrics, totals

    _, traced = pairs[0]
    counts = totals(traced.records)
    work = traced.counts
    calls = traced.layer_calls

    def median_s(key: str) -> float:
        return statistics.median(t.layers_s.get(key, 0.0) for _, t in pairs)

    metrics: Dict[str, dict] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(median_s(layer), "s")
        metrics[f"{layer}.calls"] = _metric(calls.get(layer, 0), "count")
    untraced_sim_s = statistics.median(u.sim_s for u, _ in pairs)
    receptions = (
        counts["net.frames_delivered"]
        + counts["net.frames_lost_collision"]
        + counts["net.frames_lost_random"]
        + counts["net.frames_lost_busy_receiver"]
    )
    first_sends = work.get("net.reliability.first_sends", 0)
    extra = {
        "sim.events": (counts["sim.events"], "count"),
        "sim.events_per_s": (_ratio(counts["sim.events"], untraced_sim_s), "1/s"),
        "sim.peak_queue_depth": (counts["sim.peak_queue_depth"], "count"),
        "sim.queue_ops": (work.get("sim.queue_ops", 0), "count"),
        "net.medium.frames": (counts["net.frames_sent"], "count"),
        "net.medium.bytes_sent": (counts["net.bytes_sent"], "bytes"),
        "net.medium.receptions": (receptions, "count"),
        "net.medium.delivered_ratio": (_ratio(counts["net.frames_delivered"], receptions), "ratio"),
        "net.medium.lost_collision": (counts["net.frames_lost_collision"], "count"),
        "net.radio.os_drops": (counts["net.frames_dropped_buffer"], "count"),
        "net.leaky_bucket.drops": (counts["net.bucket_dropped_frames"], "count"),
        "net.reliability.retransmissions": (counts["net.retransmitted_frames"], "count"),
        "net.reliability.retx_ratio": (_ratio(counts["net.retransmitted_frames"], first_sends), "ratio"),
        "net.topology.read_self_s": (median_s("net.topology.read"), "s"),
        "net.topology.reads": (calls.get("net.topology.read", 0), "count"),
        "net.topology.write_self_s": (median_s("net.topology.write"), "s"),
        "net.topology.writes": (calls.get("net.topology.write", 0), "count"),
        "bloom.ops": (work.get("bloom.ops", 0) + work.get("bloom.contains", 0), "count"),
        "bloom.hit_ratio": (_ratio(work.get("bloom.hits", 0), work.get("bloom.contains", 0)), "ratio"),
        "core.cdi.improve_ratio": (
            _ratio(work.get("core.cdi.improving", 0), work.get("core.cdi.updates", 0)), "ratio"
        ),
        "core.assignment.chunks_assigned": (work.get("core.assignment.chunks_assigned", 0), "count"),
        "core.consumer.incomplete_ratio": (simulated_metrics(traced.records)["incomplete_ratio"], "ratio"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = _metric(value, unit)
    coverage = statistics.median(
        _ratio(sum(v for k, v in t.layers_s.items() if k in LAYERS), t.wall_s) for _, t in pairs
    )
    metrics["trace.coverage"] = _metric(coverage, "ratio")
    metrics["trace.overhead"] = _metric(
        statistics.median(_ratio(t.wall_s, u.wall_s) for u, t in pairs), "ratio"
    )
    return metrics


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    cleared = _pin_environment()
    _import_program()
    from perfbench.workloads import (
        WORKLOADS,
        digest,
        failed_sessions,
        outputs_valid,
        sessions,
        totals,
    )

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print(f"perfbench env {json.dumps(_environment(cleared), sort_keys=True)}")
    seeds = workload.seeds(args.seed, args.small)
    print(f"perfbench inputs {args.workload} seeds={seeds}")

    started = perf_counter()
    if args.trace == 0:
        passes: List[Pass] = []
        while not passes or perf_counter() - started < args.seconds:
            passes.append(run_pass(workload, seeds, args.small, traced=False))
        metrics = end_to_end(passes)
        reported = passes[0].records
    else:
        seeds = seeds[:1]
        pairs = []
        while not pairs or perf_counter() - started < args.seconds:
            pairs.append(
                (
                    run_pass(workload, seeds, args.small, traced=False),
                    run_pass(workload, seeds, args.small, traced=True),
                )
            )
        metrics = per_layer(pairs)
        passes = [p for pair in pairs for p in pair]
        reported = pairs[0][1].records
    # Every pass ran the same inputs, traced or not: one digest, or the
    # program (or the tracing) is not deterministic.
    digests = {digest(p.records) for p in passes}
    correct = len(digests) == 1 and all(outputs_valid(p.records) for p in passes)
    for value in sorted(digests):
        print(f"perfbench digest {args.workload} {value}")
    for index, p in enumerate(passes):
        raw = sum(r["host_s"] for r in p.records)
        print(
            f"perfbench timing pass={index} traced={bool(p.layers_s)} raw_sim_s={raw:.4f} "
            f"speed={p.speed:.4f} scaled_sim_s={p.sim_s:.4f} checks_s={p.excluded_s:.4f}"
        )
    print(f"perfbench counts {json.dumps(totals(reported), sort_keys=True)}")
    result = {
        "correct": correct,
        "attempted": len(sessions(reported)),
        "failed": failed_sessions(reported),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
