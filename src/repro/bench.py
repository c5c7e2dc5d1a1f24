"""Performance-regression harness: ``repro bench``.

Runs a registry of named benchmarks — micro-benchmarks of the two
mobility hot paths (Bloom-filter ops, the spatial neighbor index) and
reduced end-to-end figure runs — and writes one ``BENCH_<name>.json``
per benchmark::

    python -m repro bench --quick                # run all, write JSON
    python -m repro bench bloom_ops spatial_index
    python -m repro bench --quick --check        # gate against baseline
    python -m repro bench --quick --update-baseline

Each result file carries:

* ``wall_s`` / ``events_per_sec`` — machine-dependent timing,
* ``events`` and ``peak_queue_depth`` — *deterministic* counters
  (processed simulator events, or the operation count for
  micro-benchmarks),
* ``meta.digest`` — a checksum over the benchmark's observable output
  (e.g. the figure's result rows), so any behaviour drift is caught even
  when timing is unchanged.

``--check`` compares against the committed baseline
(``benchmarks/baseline.json``): deterministic counters and digests must
match *exactly* (they are machine-independent), while ``wall_s`` may
regress by at most ``--tolerance`` (default 0.25, i.e. 25%; env override
``REPRO_BENCH_TOLERANCE``).  Faster-than-baseline runs always pass.

Benchmarks pin their own seeds/sizes and force ``REPRO_JOBS=1`` so the
deterministic counters are reproducible regardless of environment knobs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

SCHEMA_VERSION = 1

DEFAULT_TOLERANCE = 0.25

DEFAULT_BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"

#: Baseline wall times below this are too noisy to gate on; deterministic
#: counters still protect such benchmarks against behaviour drift.
MIN_GATED_WALL_S = 0.05

#: name -> fn(quick) -> result dict (wall_s, events, events_per_sec,
#: peak_queue_depth, meta)
_BENCHMARKS: Dict[str, Callable[[bool], Dict[str, object]]] = {}

#: name -> timing repetitions (best-of-N; micro-benchmarks use N > 1 to
#: shed scheduler noise, end-to-end figures are long enough already)
_REPEATS: Dict[str, int] = {}


def _bench(name: str, repeats: int = 1):
    def register(fn: Callable[[bool], Dict[str, object]]):
        _BENCHMARKS[name] = fn
        _REPEATS[name] = repeats
        return fn

    return register


def _digest(payload: object) -> str:
    """Stable checksum of a JSON-serializable benchmark output."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _calibration_wall() -> float:
    """Best-of-5 timing of a fixed pure-Python workload.

    Stored next to every benchmark result; ``--check`` scales the
    baseline's wall times by ``current_cal / baseline_cal`` so the gate
    compares *relative* engine speed and the committed baseline stays
    meaningful on faster or slower machines.
    """
    import math as _math

    def workload() -> float:
        acc = 0.0
        table = {}
        for i in range(120_000):
            acc += _math.hypot(i & 1023, (i * 7) & 511)
            table[i & 4095] = acc
        return acc + len(table)

    best = _math.inf
    for _ in range(5):
        start = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - start)
    return best


@contextmanager
def _single_process() -> Iterator[None]:
    """Force sequential sweeps so event counts are reproducible."""
    previous = os.environ.get("REPRO_JOBS")
    os.environ["REPRO_JOBS"] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_JOBS", None)
        else:
            os.environ["REPRO_JOBS"] = previous


def _peak_rss_kb(ru_maxrss: Optional[int] = None) -> int:
    """This process's peak RSS in KiB, normalized per platform.

    ``getrusage(...).ru_maxrss`` is KiB on Linux but *bytes* on macOS
    (both straight from each kernel's ``struct rusage``), so treating it
    as KiB unconditionally inflates the scaling curve's memory column
    1024x on a Mac.
    """
    if ru_maxrss is None:
        import resource

        ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(ru_maxrss) // 1024
    return int(ru_maxrss)


def _result(
    wall_s: float,
    events: int,
    peak_queue_depth: int,
    meta: Dict[str, object],
) -> Dict[str, object]:
    return {
        "wall_s": round(wall_s, 6),
        "events": events,
        "events_per_sec": round(events / wall_s, 1) if wall_s > 0 else 0.0,
        "peak_queue_depth": peak_queue_depth,
        "meta": meta,
    }


# ----------------------------------------------------------------------
# Micro-benchmarks
# ----------------------------------------------------------------------
@_bench("bloom_ops", repeats=3)
def bench_bloom_ops(quick: bool) -> Dict[str, object]:
    """Bloom insert/test/union over the key mix discovery rounds see."""
    from repro.bloom.bloom_filter import BloomFilter

    n_keys = 2_000 if quick else 20_000
    rounds = 4
    rng = random.Random(1234)
    keys = [
        b"ns=%d\x1ftype=%d\x1fid=%d" % (rng.randrange(8), rng.randrange(4), i)
        for i in range(n_keys)
    ]
    ops = 0
    observed: List[object] = []
    start = time.perf_counter()
    for round_index in range(rounds):
        issued = BloomFilter.for_capacity(n_keys, seed=round_index)
        merged = BloomFilter(issued.m_bits, issued.k_hashes, seed=round_index)
        for key in keys:
            issued.insert(key)
        ops += n_keys
        hits = sum(1 for key in keys if key in issued)
        ops += n_keys
        misses = sum(1 for i in range(n_keys) if b"absent-%d" % i in issued)
        ops += n_keys
        for key in keys[: n_keys // 2]:
            merged.insert(key)
        merged.union_update(issued)
        ops += n_keys // 2 + 1
        observed.append(
            [hits, misses, merged.count, zlib.crc32(merged.to_bytes())]
        )
    wall = time.perf_counter() - start
    return _result(
        wall,
        events=ops,
        peak_queue_depth=0,
        meta={"keys": n_keys, "rounds": rounds, "digest": _digest(observed)},
    )


@_bench("spatial_index", repeats=3)
def bench_spatial_index(quick: bool) -> Dict[str, object]:
    """Neighbor queries interleaved with moves (random-waypoint style)."""
    from repro.net.topology import Topology

    n_nodes = 150 if quick else 400
    steps = 2_000 if quick else 12_000
    rng = random.Random(99)
    topology = Topology(radio_range=30.0)
    width = height = 400.0
    for node in range(n_nodes):
        topology.add_node(node, (rng.uniform(0, width), rng.uniform(0, height)))
    ops = 0
    checksum = 0
    start = time.perf_counter()
    for step in range(steps):
        node = rng.randrange(n_nodes)
        if step % 3 == 0:
            topology.move(node, (rng.uniform(0, width), rng.uniform(0, height)))
        neighbors = topology.neighbors(node)
        checksum = (checksum * 31 + len(neighbors)) % (1 << 61)
        ops += 1 + len(neighbors)
    wall = time.perf_counter() - start
    return _result(
        wall,
        events=ops,
        peak_queue_depth=0,
        meta={"nodes": n_nodes, "steps": steps, "digest": _digest(checksum)},
    )


# ----------------------------------------------------------------------
# End-to-end figure benchmarks
# ----------------------------------------------------------------------
def _profiled_figure(run: Callable[[], object]) -> Dict[str, object]:
    from repro.obs.fingerprint import configured_fingerprint
    from repro.obs.kernelprof import KernelProfiler
    from repro.obs.recorder import configured_recording

    profiler = KernelProfiler()
    with _single_process(), profiler.activate():
        start = time.perf_counter()
        rows = run()
        wall = time.perf_counter() - start
    summary = profiler.runs_summary()
    meta: Dict[str, object] = {
        "runs": int(summary["runs"]),
        "digest": _digest(json.loads(json.dumps(rows))),
    }
    if configured_recording() is not None:
        # Flight-recorder sampling adds its own simulator events, so the
        # event counters legitimately differ from an unrecorded baseline.
        # The digest is NOT exempted: result rows must stay bit-identical
        # with the recorder on (the zero-perturbation contract).
        meta["recorded"] = True
    if configured_fingerprint() is not None:
        # Fingerprinting observes the existing event stream without adding
        # events, so the counters stay comparable — but its wall overhead
        # means timings belong to a different budget than an unmarked
        # baseline.  The digest is never exempted: fingerprinted results
        # must stay bit-identical (the zero-perturbation contract).
        meta["fingerprinted"] = True
    return _result(
        wall,
        events=int(summary["events"]),
        peak_queue_depth=int(summary["peak_queue_depth"]),
        meta=meta,
    )


@_bench("mobility_pdd", repeats=2)
def bench_mobility_pdd(quick: bool) -> Dict[str, object]:
    """Reduced fig9/10 mobility sweep — the engine's hottest workload."""
    from repro.experiments.figures.fig9_10_mobility_pdd import run_both_locations

    if quick:
        return _profiled_figure(
            lambda: run_both_locations(
                scales=(0.5, 1.5), seeds=[1], metadata_count=600
            )
        )
    return _profiled_figure(
        lambda: run_both_locations(seeds=[1, 2], metadata_count=1250)
    )


_SCALING_GRIDS_QUICK = ((5, 6), (8, 8), (11, 11))  # 30, 64, 121 nodes
_SCALING_GRIDS_FULL = (
    (5, 6),  # 30 nodes — the paper's smallest static grids
    (8, 8),  # 64
    (12, 12),  # 144
    (18, 18),  # 324
    (24, 24),  # 576
    (32, 32),  # 1024 — the ROADMAP's city-scale target
)


@_bench("scaling", repeats=1)
def bench_scaling(quick: bool) -> Dict[str, object]:
    """Events/s vs node count: the kernel's scaling curve."""
    import gc

    from repro.core.rounds import RoundConfig
    from repro.experiments.figures.common import pdd_experiment
    from repro.obs.kernelprof import KernelProfiler

    grids = _SCALING_GRIDS_QUICK if quick else _SCALING_GRIDS_FULL
    curve: List[Dict[str, object]] = []
    deterministic: List[List[object]] = []
    total_wall = 0.0
    total_events = 0
    peak_queue = 0
    for rows, cols in grids:
        nodes = rows * cols
        gc.collect()
        kernel = KernelProfiler()
        with _single_process(), kernel.activate():
            start = time.perf_counter()
            outcome = pdd_experiment(
                seed=1,
                rows=rows,
                cols=cols,
                metadata_count=2 * nodes,
                # Two rounds bound convergence so the curve measures
                # kernel throughput, not per-size protocol behaviour.
                round_config=RoundConfig(max_rounds=2),
                sim_cap_s=120.0,
            )
            wall = time.perf_counter() - start
        summary = kernel.runs_summary()
        events = int(summary["events"])
        point_peak = int(summary["peak_queue_depth"])
        # The process-wide RSS high-water mark, so the curve is monotonic
        # by construction: each point reports the peak up to and
        # including its own run.
        peak_rss_kb = _peak_rss_kb()
        first = outcome.first
        deterministic.append(
            [
                nodes,
                events,
                point_peak,
                round(first.recall, 6),
                first.result.rounds,
                outcome.total_overhead_bytes,
            ]
        )
        curve.append(
            {
                "nodes": nodes,
                "rows": rows,
                "cols": cols,
                "wall_s": round(wall, 6),
                "events": events,
                "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
                "peak_queue_depth": point_peak,
                "peak_rss_kb": peak_rss_kb,
                "recall": round(first.recall, 3),
            }
        )
        print(
            f"    {nodes:5d} nodes  wall {wall:7.3f}s  "
            f"{events:8d} events  {events / wall if wall > 0 else 0:9.0f} ev/s  "
            f"rss {peak_rss_kb / 1024:.0f} MiB",
            flush=True,
        )
        total_wall += wall
        total_events += events
        peak_queue = max(peak_queue, point_peak)
    result = _result(
        total_wall,
        events=total_events,
        peak_queue_depth=peak_queue,
        meta={"points": len(curve), "digest": _digest(deterministic)},
    )
    # Machine-dependent per-point data lives OUTSIDE meta: the repeat
    # loop and the baseline check treat meta as deterministic, while the
    # curve's wall times are gated per point with the speed-normalized
    # tolerance (see _check_one).
    result["curve"] = curve
    return result


@_bench("round_params", repeats=2)
def bench_round_params(quick: bool) -> Dict[str, object]:
    """Reduced fig5 round-parameter sweep (static grid, heavy discovery)."""
    from repro.experiments.figures.fig5_round_params import run

    if quick:
        return _profiled_figure(
            lambda: run(
                windows=(0.4, 1.0),
                tds=(0.0,),
                seeds=[1],
                metadata_count=1200,
                rows_cols=6,
            )
        )
    return _profiled_figure(
        lambda: run(
            windows=(0.2, 0.6, 1.0),
            tds=(0.0, 0.3),
            seeds=[1, 2],
            metadata_count=2500,
            rows_cols=8,
        )
    )


# ----------------------------------------------------------------------
# Baseline check
# ----------------------------------------------------------------------
def _check_one(
    name: str,
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float,
) -> List[str]:
    """Failure messages for one benchmark vs its baseline entry."""
    failures: List[str] = []
    recorder_mismatch = bool(
        (current.get("meta") or {}).get("recorded")
    ) != bool((baseline.get("meta") or {}).get("recorded"))
    if not recorder_mismatch:
        # With the flight recorder enabled on only one side, its sampling
        # events make the raw counters incomparable; the digest below
        # still gates bit-identical results, and wall time still gates
        # the recorder's overhead budget.
        for field in ("events", "peak_queue_depth"):
            if current[field] != baseline.get(field):
                failures.append(
                    f"{name}: deterministic counter {field!r} changed: "
                    f"baseline {baseline.get(field)} != current {current[field]}"
                )
    base_digest = (baseline.get("meta") or {}).get("digest")
    cur_digest = (current.get("meta") or {}).get("digest")
    if base_digest != cur_digest:
        failures.append(
            f"{name}: output digest changed: "
            f"baseline {base_digest} != current {cur_digest}\n"
            "  the simulation now produces different deterministic output; "
            "bisect to the first divergent event with e.g.\n"
            "    python -m repro diverge --a '' --b file=<fingerprint.jsonl>\n"
            "  (a fingerprint recorded at the baseline revision; swap a "
            "side for jobs=2 / perturb=stream:index to "
            "compare configurations)"
        )
    # Normalize for machine speed: scale the baseline by the ratio of
    # calibration-loop timings taken on each machine.
    base_cal = baseline.get("calibration_s")
    cur_cal = current.get("calibration_s")
    speed_ratio = 1.0
    if (
        isinstance(base_cal, (int, float))
        and isinstance(cur_cal, (int, float))
        and base_cal > 0
    ):
        speed_ratio = float(cur_cal) / float(base_cal)
    base_wall = baseline.get("wall_s")
    if isinstance(base_wall, (int, float)) and base_wall >= MIN_GATED_WALL_S:
        limit = base_wall * speed_ratio * (1.0 + tolerance)
        if float(current["wall_s"]) > limit:
            failures.append(
                f"{name}: wall-clock regression: {current['wall_s']:.3f}s > "
                f"{limit:.3f}s (baseline {base_wall:.3f}s × speed ratio "
                f"{speed_ratio:.2f} + {tolerance:.0%})"
            )
    # Scaling-curve benchmarks gate per point too, so a regression that
    # only bites at large node counts cannot hide inside the total.
    base_curve = baseline.get("curve")
    cur_curve = current.get("curve")
    if isinstance(base_curve, list) and isinstance(cur_curve, list):
        cur_by_nodes = {
            point.get("nodes"): point
            for point in cur_curve
            if isinstance(point, dict)
        }
        for base_point in base_curve:
            if not isinstance(base_point, dict):
                continue
            label = f"{base_point.get('nodes')} nodes"
            point = cur_by_nodes.get(base_point.get("nodes"))
            if point is None:
                failures.append(
                    f"{name}: curve point for {label} missing "
                    f"from current run"
                )
                continue
            base_point_wall = base_point.get("wall_s")
            if (
                isinstance(base_point_wall, (int, float))
                and base_point_wall >= MIN_GATED_WALL_S
            ):
                limit = base_point_wall * speed_ratio * (1.0 + tolerance)
                if float(point.get("wall_s", 0.0)) > limit:
                    failures.append(
                        f"{name}: curve regression at {label}: "
                        f"{point['wall_s']:.3f}s > {limit:.3f}s "
                        f"(baseline {base_point_wall:.3f}s × speed ratio "
                        f"{speed_ratio:.2f} + {tolerance:.0%})"
                    )
    return failures


def _baseline_section(quick: bool) -> str:
    return "quick" if quick else "full"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run performance benchmarks and write BENCH_<name>.json.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="benchmarks to run (default: all; see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available benchmarks"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced workloads (CI smoke; separate baseline section)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="baseline JSON path (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional wall-clock regression "
        f"(default: REPRO_BENCH_TOLERANCE or {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--fingerprint",
        metavar="FILE",
        default=None,
        help="fingerprint every simulated event into FILE while "
        "benchmarking (results must stay bit-identical, wall time pays "
        "the fingerprint overhead)",
    )
    parser.add_argument(
        "--timeline",
        metavar="FILE",
        default=None,
        help="record a flight-recorder timeline of every benchmarked "
        "scenario into FILE (results must stay bit-identical; the "
        "recorder's sampling events exempt the event counters)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write current results into the baseline file",
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        help="directory for BENCH_<name>.json files (default: cwd)",
    )
    return parser


def _resolve_tolerance(arg: Optional[float]) -> float:
    if arg is not None:
        return arg
    raw = os.environ.get("REPRO_BENCH_TOLERANCE")
    if raw:
        try:
            return float(raw)
        except ValueError:
            print(
                f"ignoring invalid REPRO_BENCH_TOLERANCE={raw!r}",
                file=sys.stderr,
            )
    return DEFAULT_TOLERANCE


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs.config import ObsConfig

    args = build_parser().parse_args(argv)
    # Scoped to this call: nothing fingerprints or records once it returns.
    config = ObsConfig(fingerprint=args.fingerprint, timeline=args.timeline)
    with config.activate():
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    if args.list:
        print("Available benchmarks:")
        for name, fn in _BENCHMARKS.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:16s} {summary}")
        return 0

    names = args.names or list(_BENCHMARKS)
    unknown = [name for name in names if name not in _BENCHMARKS]
    if unknown:
        print(
            f"unknown benchmark(s): {', '.join(unknown)}; "
            "try `repro bench --list`",
            file=sys.stderr,
        )
        return 2

    tolerance = _resolve_tolerance(args.tolerance)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    calibration_s = _calibration_wall()
    print(f"calibration: {calibration_s * 1000:.1f}ms", flush=True)

    results: Dict[str, Dict[str, object]] = {}
    for name in names:
        print(f"bench {name} ({'quick' if args.quick else 'full'}) ...", flush=True)
        result = _BENCHMARKS[name](args.quick)
        # Best-of-N timing for short benchmarks; deterministic fields
        # must agree across repetitions or the benchmark itself is broken.
        for _ in range(_REPEATS[name] - 1):
            rerun = _BENCHMARKS[name](args.quick)
            for field in ("events", "peak_queue_depth", "meta"):
                if rerun[field] != result[field]:
                    print(
                        f"{name}: nondeterministic {field!r} across repeats",
                        file=sys.stderr,
                    )
                    return 2
            if rerun["wall_s"] < result["wall_s"]:
                result = rerun
        record = {
            "schema": SCHEMA_VERSION,
            "name": name,
            "quick": args.quick,
            "calibration_s": round(calibration_s, 6),
            **result,
        }
        results[name] = record
        out_path = out_dir / f"BENCH_{name}.json"
        out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(
            f"  wall {record['wall_s']:.3f}s  events {record['events']}  "
            f"{record['events_per_sec']:.0f} ev/s  "
            f"peak queue {record['peak_queue_depth']}  -> {out_path}"
        )

    baseline_path = Path(args.baseline)
    section = _baseline_section(args.quick)

    if args.update_baseline:
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
        else:
            baseline = {"schema": SCHEMA_VERSION, "tolerance": DEFAULT_TOLERANCE}
        baseline.setdefault(section, {}).update(results)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline updated: {baseline_path} [{section}]")
        return 0

    if args.check:
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path}", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text()).get(section, {})
        failures: List[str] = []
        for name, record in results.items():
            entry = baseline.get(name)
            if entry is None:
                failures.append(f"{name}: no [{section}] baseline entry")
                continue
            failures.extend(_check_one(name, record, entry, tolerance))
        if failures:
            print("\nPERF CHECK FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nperf check passed ({len(results)} benchmarks, "
              f"wall tolerance {tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
