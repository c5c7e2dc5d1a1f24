"""Deterministic regression harness: ``repro bench``.

Runs a registry of named benchmarks — micro-benchmarks of the two
mobility hot paths (Bloom-filter ops, the spatial neighbor index),
reduced end-to-end figure runs (PDD and, through ``redundancy``, PDR and
MDR) and the 30 → 1,024-node grid curve — and prints each one's
deterministic counters and output digest::

    python -m repro bench                        # run all, print results
    python -m repro bench bloom_ops spatial_index
    python -m repro bench --check                # gate against baseline
    python -m repro bench --update-baseline

Each benchmark reports:

* ``events`` and ``peak_queue_depth`` — deterministic counters
  (processed simulator events, or the operation count for
  micro-benchmarks),
* ``meta.digest`` — a checksum over the benchmark's observable output
  (e.g. the figure's result rows), so any behaviour drift is caught.

``--check`` compares against the committed baseline
(``benchmarks/baseline.json``, one entry per benchmark): counters and
digests are machine-independent and must match *exactly*.  This harness
times nothing; wall time and memory are perfbench's
(``python3 perfbench/run.py``).

Benchmarks pin their own seeds and sizes and run every sweep in this
process (``jobs=1``), so the deterministic counters are reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Optional

DEFAULT_BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"

#: name -> fn() -> result dict (events, peak_queue_depth, meta)
_BENCHMARKS: Dict[str, Callable[[], Dict[str, object]]] = {}


def _bench(name: str):
    def register(fn: Callable[[], Dict[str, object]]):
        _BENCHMARKS[name] = fn
        return fn

    return register


def _digest(payload: object) -> str:
    """Stable checksum of a JSON-serializable benchmark output."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Micro-benchmarks
# ----------------------------------------------------------------------
@_bench("bloom_ops")
def bench_bloom_ops() -> Dict[str, object]:
    """Bloom insert/test/union over the key mix discovery rounds see."""
    from repro.bloom.bloom_filter import BloomFilter

    n_keys = 2_000
    rounds = 4
    rng = random.Random(1234)
    keys = [
        b"ns=%d\x1ftype=%d\x1fid=%d" % (rng.randrange(8), rng.randrange(4), i)
        for i in range(n_keys)
    ]
    ops = 0
    observed: List[object] = []
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
    return {
        "events": ops,
        "peak_queue_depth": 0,
        "meta": {"keys": n_keys, "rounds": rounds, "digest": _digest(observed)},
    }


@_bench("spatial_index")
def bench_spatial_index() -> Dict[str, object]:
    """Neighbor queries interleaved with moves (random-waypoint style)."""
    from repro.net.topology import Topology

    n_nodes = 150
    steps = 2_000
    rng = random.Random(99)
    topology = Topology(radio_range=30.0)
    width = height = 400.0
    for node in range(n_nodes):
        topology.add_node(node, (rng.uniform(0, width), rng.uniform(0, height)))
    ops = 0
    checksum = 0
    for step in range(steps):
        node = rng.randrange(n_nodes)
        if step % 3 == 0:
            topology.move(node, (rng.uniform(0, width), rng.uniform(0, height)))
        neighbors = topology.neighbors(node)
        checksum = (checksum * 31 + len(neighbors)) % (1 << 61)
        ops += 1 + len(neighbors)
    return {
        "events": ops,
        "peak_queue_depth": 0,
        "meta": {"nodes": n_nodes, "steps": steps, "digest": _digest(checksum)},
    }


# ----------------------------------------------------------------------
# End-to-end figure benchmarks
# ----------------------------------------------------------------------
def _run_summary() -> Dict[str, int]:
    """Totals of the runs profiled since the last call (then forgotten)."""
    from repro.obs.config import active

    profiler = active("metrics").profiler
    summary = profiler.runs_summary()
    profiler.drain()
    return summary


def _profiled_figure(run: Callable[[], object]) -> Dict[str, object]:
    from repro.obs.config import active

    rows = run()
    summary = _run_summary()
    meta: Dict[str, object] = {
        "runs": summary["runs"],
        "digest": _digest(json.loads(json.dumps(rows))),
    }
    if active("timeline") is not None:
        # Flight-recorder sampling adds its own simulator events, so the
        # event counters legitimately differ from an unrecorded baseline.
        # The digest is NOT exempted: result rows must stay bit-identical
        # with the recorder on (the zero-perturbation contract).
        meta["recorded"] = True
    return {
        "events": summary["events"],
        "peak_queue_depth": summary["peak_queue_depth"],
        "meta": meta,
    }


@_bench("mobility_pdd")
def bench_mobility_pdd() -> Dict[str, object]:
    """Reduced fig9/10 mobility sweep — the engine's hottest workload."""
    from repro.experiments.figures.fig9_10_mobility_pdd import run_both_locations

    return _profiled_figure(
        lambda: run_both_locations(scales=(0.5, 1.5), seeds=[1], metadata_count=600)
    )


_SCALING_GRIDS = (
    (5, 6),  # 30 nodes — the paper's smallest static grids
    (8, 8),  # 64
    (12, 12),  # 144
    (18, 18),  # 324
    (24, 24),  # 576
    (32, 32),  # 1024 — perfbench's pdd_city, apart from the seed
)


@_bench("scaling")
def bench_scaling() -> Dict[str, object]:
    """Grid-world discovery from 30 to 1,024 nodes: the scaling curve."""
    from repro.core.rounds import RoundConfig
    from repro.experiments.figures.common import pdd_experiment

    deterministic: List[List[object]] = []
    for rows, cols in _SCALING_GRIDS:
        nodes = rows * cols
        outcome = pdd_experiment(
            seed=1,
            rows=rows,
            cols=cols,
            metadata_count=2 * nodes,
            # Two rounds bound convergence so the curve measures
            # kernel load, not per-size protocol behaviour.
            round_config=RoundConfig(max_rounds=2),
            sim_cap_s=120.0,
        )
        summary = _run_summary()
        first = outcome.first
        point = [
            nodes,
            int(summary["events"]),
            int(summary["peak_queue_depth"]),
            round(first.recall, 6),
            first.result.rounds,
            outcome.total_overhead_bytes,
        ]
        deterministic.append(point)
        print(
            "    {:5d} nodes  events {}  peak queue {}  recall {}  "
            "rounds {}  overhead {} B".format(*point),
            flush=True,
        )
    return {
        "events": sum(point[1] for point in deterministic),
        "peak_queue_depth": max(point[2] for point in deterministic),
        "meta": {"points": len(deterministic), "digest": _digest(deterministic)},
    }


@_bench("round_params")
def bench_round_params() -> Dict[str, object]:
    """Reduced fig5 round-parameter sweep (static grid, heavy discovery)."""
    from repro.experiments.figures.fig5_round_params import run

    return _profiled_figure(
        lambda: run(
            windows=(0.4, 1.0),
            tds=(0.0,),
            seeds=[1],
            metadata_count=1200,
            rows_cols=6,
        )
    )


@_bench("redundancy")
def bench_redundancy() -> Dict[str, object]:
    """Reduced fig13/14 PDR vs MDR sweep: CDI, chunk and MDR engines."""
    from repro.experiments.figures.fig13_14_redundancy import run

    return _profiled_figure(lambda: run(redundancies=(1, 3), seeds=[1]))


# ----------------------------------------------------------------------
# Baseline check
# ----------------------------------------------------------------------
def _check_one(
    name: str, current: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Failure messages for one benchmark vs its baseline entry."""
    failures: List[str] = []
    recorder_mismatch = bool(
        (current.get("meta") or {}).get("recorded")
    ) != bool((baseline.get("meta") or {}).get("recorded"))
    if not recorder_mismatch:
        # With the flight recorder enabled on only one side, its sampling
        # events make the raw counters incomparable; the digest below
        # still gates bit-identical results.
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
    return failures


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the deterministic benchmarks and print their "
        "counters and output digests.",
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
        "--check",
        action="store_true",
        help="compare against the baseline; exit 1 on any difference",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="baseline JSON path (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--fingerprint",
        metavar="FILE",
        default=None,
        help="fingerprint every simulated event into FILE while "
        "benchmarking (results and counters must stay bit-identical)",
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
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs.config import ObsConfig

    args = build_parser().parse_args(argv)
    if args.update_baseline and args.timeline:
        # A recorded baseline would exempt every later unrecorded run
        # from the counter gate (see _check_one).
        print(
            "configuration error: --update-baseline cannot be combined "
            "with --timeline (the recorder's sampling events would "
            "become the baseline's counters)",
            file=sys.stderr,
        )
        return 2
    # Scoped to this call: nothing fingerprints or records once it returns.
    # Every benchmark takes its run counters from this one profiler; a
    # nested activation would shadow the fingerprint and timeline files.
    config = ObsConfig(
        fingerprint=args.fingerprint, timeline=args.timeline, metrics=True
    )
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

    results: Dict[str, Dict[str, object]] = {}
    for name in names:
        print(f"bench {name} ...", flush=True)
        result = results[name] = _BENCHMARKS[name]()
        print(
            f"  events {result['events']}  "
            f"peak queue {result['peak_queue_depth']}  "
            f"digest {result['meta']['digest']}"
        )

    baseline_path = Path(args.baseline)

    if args.update_baseline:
        baseline = (
            json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
        )
        baseline.update(results)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline updated: {baseline_path}")
        return 0

    if args.check:
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path}", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())
        failures: List[str] = []
        for name, result in results.items():
            entry = baseline.get(name)
            if entry is None:
                failures.append(f"{name}: no baseline entry")
                continue
            failures.extend(_check_one(name, result, entry))
        if failures:
            print("\nBENCH CHECK FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nbench check passed ({len(results)} benchmarks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
