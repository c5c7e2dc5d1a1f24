"""Command-line interface: regenerate any figure of the paper.

Usage::

    python -m repro list
    python -m repro fig4
    python -m repro fig13_14 --seeds 5 --scale 1.0
    python -m repro all --seeds 2 --scale 0.25
    python -m repro fig4 --jobs 4          # 4 worker processes per sweep

Observability::

    python -m repro fig4 --trace out.jsonl   # JSONL event trace of the run
    python -m repro fig4 --metrics           # wall-time / events-per-second
                                             # profile after the tables
    python -m repro fig5 --metrics --memory  # + tracemalloc phase deltas
    python -m repro inspect out.jsonl        # summarize a trace file
    python -m repro bench --quick --check    # perf-regression gate

Determinism observatory::

    python -m repro --version                  # version stamped in every
                                               # JSONL provenance header
    python -m repro fig4 --fingerprint fp.jsonl   # chained event digests
                                                  # + checkpoint stream
    python -m repro diverge --a '' --b jobs=2  # bisect two configs to the
                                               # first divergent event
    python -m repro diverge --a file=fp.jsonl --b ''   # vs recorded stream

Campaign store::

    python -m repro fig12 --store runs/store --jobs 8   # durable campaign
    python -m repro campaign resume fig12 --store runs/store   # pick up a
                                                # killed campaign where it
                                                # stopped (bit-identical)
    python -m repro campaign status --store runs/store  # what's cached
    python -m repro campaign gc --store runs/store      # sweep tmp litter

Flight recorder::

    python -m repro fig4 --timeline tl.jsonl   # record protocol state
    python -m repro inspect tl.jsonl --timeline        # sparkline views
    python -m repro inspect tl.jsonl --at 12.5         # state at t=12.5s
    python -m repro inspect tl.jsonl --diff 5 20       # what changed
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.experiments.figures import REGISTRY


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.durable import repro_version

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation figures of 'Content Centric Peer "
            "Data Sharing in Pervasive Edge Computing Environments' "
            "(ICDCS 2017)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {repro_version()}",
    )
    parser.add_argument(
        "figure",
        help="figure id (see `list`), `all`, `list`, `report` "
        "(rebuild EXPERIMENTS.md from benchmarks/results), or "
        "`inspect <trace.jsonl>` (summarize a trace file)",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="trace file to read (only for `inspect`)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="number of seeds per data point (paper: 5)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale factor (paper: 1.0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per sweep (0 = one per CPU; default: "
        "REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="content-addressed campaign store (sets REPRO_STORE): "
        "completed trials persist and are skipped on re-runs, so a "
        "killed campaign resumes with `repro campaign resume <figure> "
        "--store DIR` producing bit-identical tables",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL event trace of every simulation to FILE "
        "(with --jobs N>1, per-worker shards FILE.0, FILE.1, ...)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="profile the run (wall time, events/sec, peak queue depth)",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="record tracemalloc snapshots at phase boundaries "
        "(setup / discovery rounds / retrieval) with per-subsystem "
        "allocator attribution (default --jobs 1: phases are per-process)",
    )
    parser.add_argument(
        "--timeline",
        metavar="FILE",
        nargs="?",
        const=True,
        default=None,
        help="figure runs: record a flight-recorder timeline to FILE "
        "(bare --timeline records in memory, attaching summary columns "
        "only; with --jobs N>1, per-worker shards FILE.0, ...); "
        "inspect: render per-node sparkline views of a timeline file",
    )
    parser.add_argument(
        "--fingerprint",
        metavar="FILE",
        default=None,
        help="figure runs: stream a determinism fingerprint (chained "
        "event digests + checkpoints) to FILE (with --jobs N>1, "
        "per-worker shards FILE.0, ...); compare streams with "
        "`repro diverge`",
    )
    parser.add_argument(
        "--fingerprint-every",
        type=int,
        default=None,
        metavar="K",
        help="events per fingerprint checkpoint (default: 512)",
    )
    parser.add_argument(
        "--timeline-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sim seconds between timeline samples (default: 1.0)",
    )
    parser.add_argument(
        "--keyframe-every",
        type=int,
        default=None,
        metavar="K",
        help="write a full keyframe every K timeline samples (default: 10)",
    )
    parser.add_argument(
        "--at",
        type=float,
        default=None,
        metavar="T",
        help="inspect: reconstruct exact network state at sim time T "
        "from the nearest timeline keyframe plus deltas",
    )
    parser.add_argument(
        "--diff",
        type=float,
        nargs=2,
        default=None,
        metavar=("T1", "T2"),
        help="inspect: show timeline state entries added/removed/"
        "rewritten between sim times T1 and T2",
    )
    parser.add_argument(
        "--series",
        default=None,
        metavar="NAMES",
        help="inspect --timeline: comma-separated series to render "
        "(lqt, cdi, meta, chunks, bytes, sendq, radioq, retx)",
    )
    parser.add_argument(
        "--top-nodes",
        type=int,
        default=10,
        help="how many nodes `inspect` lists in its per-node ranking",
    )
    parser.add_argument(
        "--spans",
        action="store_true",
        help="inspect: reconstruct per-query/per-chunk span trees with "
        "waterfall timelines",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="inspect: check protocol invariants; exit 1 on any violation",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="inspect: machine-readable JSON report instead of tables",
    )
    return parser


def _run_figures(args: argparse.Namespace) -> int:
    """Run one figure (or all), honouring the observability flags and --jobs."""
    from contextlib import ExitStack

    from repro.experiments.runner import configured_jobs
    from repro.obs.fingerprint import DEFAULT_CHECKPOINT_EVERY, fingerprinting
    from repro.obs.kernelprof import KernelProfiler
    from repro.obs.memprof import MemoryTelemetry
    from repro.obs.metrics import MetricsRegistry, collect_registries
    from repro.obs.recorder import (
        DEFAULT_INTERVAL_S,
        DEFAULT_KEYFRAME_EVERY,
        recording,
    )
    from repro.obs.trace import JsonlSink, global_sink

    if args.figure != "all" and args.figure not in REGISTRY:
        print(
            f"unknown figure {args.figure!r}; try `python -m repro list`",
            file=sys.stderr,
        )
        return 2

    profiler = KernelProfiler() if args.metrics else None
    memory = MemoryTelemetry() if args.memory else None
    registries: List[MetricsRegistry] = []
    with ExitStack() as stack:
        if args.trace:
            try:
                sink = JsonlSink(args.trace)
            except OSError as exc:
                print(f"cannot write trace file {args.trace}: {exc}", file=sys.stderr)
                return 2
            stack.enter_context(global_sink(sink))
        if args.timeline:
            timeline_path = (
                args.timeline if isinstance(args.timeline, str) else None
            )
            interval = (
                args.timeline_interval
                if args.timeline_interval is not None
                else DEFAULT_INTERVAL_S
            )
            keyframe = (
                args.keyframe_every
                if args.keyframe_every is not None
                else DEFAULT_KEYFRAME_EVERY
            )
            stack.enter_context(
                recording(
                    path=timeline_path,
                    interval_s=interval,
                    keyframe_every=keyframe,
                )
            )
        if args.fingerprint:
            stack.enter_context(
                fingerprinting(
                    path=args.fingerprint,
                    checkpoint_every=args.fingerprint_every
                    or DEFAULT_CHECKPOINT_EVERY,
                )
            )
        if profiler is not None:
            stack.enter_context(profiler.activate())
            registries = stack.enter_context(collect_registries())
        if memory is not None:
            stack.enter_context(memory.activate())
        if args.figure == "all":
            for figure_id, module in REGISTRY.items():
                print(f"== {figure_id} ==")
                print(module.main())
                print()
        else:
            print(REGISTRY[args.figure].main())
    if args.trace:
        if configured_jobs() > 1:
            print(
                f"trace written to per-worker shards next to {args.trace}",
                file=sys.stderr,
            )
        else:
            print(f"trace written to {args.trace}", file=sys.stderr)
    if args.fingerprint:
        if configured_jobs() > 1:
            print(
                f"fingerprint written to per-worker shards next to "
                f"{args.fingerprint}",
                file=sys.stderr,
            )
        else:
            print(f"fingerprint written to {args.fingerprint}", file=sys.stderr)
    if isinstance(args.timeline, str):
        if configured_jobs() > 1:
            print(
                f"timeline written to per-worker shards next to {args.timeline}",
                file=sys.stderr,
            )
        else:
            print(f"timeline written to {args.timeline}", file=sys.stderr)
    if profiler is not None:
        print()
        print(profiler.render_runs())
        if registries:
            merged = MetricsRegistry()
            for registry in registries:
                merged.merge_snapshot(registry.snapshot())
            print()
            print(merged.render())
    if memory is not None:
        print()
        print(memory.render())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    if raw_argv and raw_argv[0] == "bench":
        # The bench subcommand has its own flag set; dispatch before the
        # figure parser rejects them.
        from repro.bench import main as bench_main

        return bench_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "diverge":
        from repro.divergecli import main as diverge_main

        return diverge_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "campaign":
        from repro.campaigncli import main as campaign_main

        return campaign_main(raw_argv[1:])

    args = build_parser().parse_args(raw_argv)
    if args.seeds is not None:
        os.environ["REPRO_SEEDS"] = str(args.seeds)
    if args.scale is not None:
        os.environ["REPRO_SCALE"] = str(args.scale)
    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    elif args.memory:
        # Phase boundaries fire in whichever process crosses them; keep
        # the whole campaign here so the telemetry sees all of it.
        os.environ["REPRO_JOBS"] = "1"
    if args.store is not None:
        os.environ["REPRO_STORE"] = args.store

    if args.figure == "list":
        print("Available figures:")
        for figure_id, module in REGISTRY.items():
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print(f"  {figure_id:12s} {summary}")
        return 0

    if args.figure == "report":
        from repro.experiments.report import main as report_main

        return report_main([])

    if args.figure == "inspect":
        if not args.path:
            print("inspect needs a trace file: repro inspect out.jsonl", file=sys.stderr)
            return 2
        if args.timeline or args.at is not None or args.diff:
            # Timeline mode: the path names a flight-recorder file.
            from repro.obs.timeline import inspect_timeline

            series = (
                [name.strip() for name in args.series.split(",") if name.strip()]
                if args.series
                else None
            )
            try:
                code, text = inspect_timeline(
                    args.path,
                    timeline=bool(args.timeline),
                    at=args.at,
                    diff=args.diff,
                    series=series,
                    top_nodes=args.top_nodes,
                    as_json=args.as_json,
                )
            except FileNotFoundError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            print(text)
            return code
        from repro.obs.inspect import inspect_path

        try:
            # The path may be a single file, a directory of shards, or a
            # glob (parallel runs write trace.0.jsonl, trace.1.jsonl, ...).
            code, text = inspect_path(
                args.path,
                top_nodes=args.top_nodes,
                spans=args.spans,
                audit=args.audit,
                as_json=args.as_json,
            )
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(text)
        return code

    try:
        return _run_figures(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def _main_guarded(argv: Optional[List[str]] = None) -> int:
    """`python -m repro` entry: exit cleanly when the pager closes early."""
    try:
        return main(argv)
    except BrokenPipeError:
        # Downstream `head`/`less` closed the pipe; suppress the shutdown
        # flush error too, then report success like other unix filters.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(_main_guarded())
