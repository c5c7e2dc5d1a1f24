"""Command-line interface: regenerate any figure of the paper.

Usage::

    python -m repro list
    python -m repro fig4
    python -m repro fig13_14 --seeds 5 --scale 1.0
    python -m repro all --seeds 2 --scale 0.25
    python -m repro fig4 --jobs 4          # 4 worker processes per sweep
    python -m repro all --jobs 0           # one worker per CPU core

Each figure runs through its module's ``reproduce(scale, seeds, jobs,
store)`` and ``render(rows)``; the flags are checked once here and
passed on as arguments, so a run leaves the process environment as it
found it.

Observability::

    python -m repro fig4 --trace out.jsonl   # JSONL event trace of the run
    python -m repro fig4 --metrics           # per-run events / queue-depth
                                             # profile after the tables
    python -m repro inspect out.jsonl        # summarize a trace file
    python -m repro bench --check            # counter/digest gate

Determinism observatory::

    python -m repro --version                  # version stamped in every
                                               # JSONL provenance header
    python -m repro fig4 --fingerprint fp.jsonl   # chained event digests
                                                  # + checkpoint stream
    python -m repro diverge --a '' --b jobs=2  # bisect two configs to the
                                               # first divergent event
    python -m repro diverge --a file=fp.jsonl --b ''   # vs recorded stream

Campaign store::

    python -m repro fig12 --store runs/store --jobs 8   # durable campaign;
                                                # the same command again
                                                # resumes a killed or failed
                                                # one (bit-identical)
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
from repro.experiments.figures import REGISTRY, summary


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
        "(rewrite the generated section of EXPERIMENTS.md from "
        "benchmarks/results_paper_scale), or "
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
        help="number of seeds per data point (default and paper: 5)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale factor (default and paper: 1.0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per sweep (0 = one per CPU; default: 1)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="content-addressed campaign store: completed trials persist "
        "and are skipped on re-runs, so re-running the same command "
        "resumes a killed or failed campaign with bit-identical tables",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="profile the run (events, sim time, peak queue depth) and "
        "print the merged counters, gauges and histograms of its simulators",
    )
    obs = parser.add_argument_group(
        "observability",
        "instruments for figure runs; with --jobs N>1 each FILE is "
        "written as per-worker shards FILE.0, FILE.1, ...",
    )
    obs.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL event trace of every simulation to FILE",
    )
    obs.add_argument(
        "--timeline",
        metavar="FILE",
        nargs="?",
        const=True,
        default=None,
        help="figure runs: record a flight-recorder timeline to FILE; "
        "inspect (bare --timeline): render per-node sparkline views of a "
        "timeline file",
    )
    obs.add_argument(
        "--timeline-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sim seconds between timeline samples (default: 1.0)",
    )
    obs.add_argument(
        "--fingerprint",
        metavar="FILE",
        default=None,
        help="stream a determinism fingerprint (chained event digests + "
        "checkpoints) to FILE; compare streams with `repro diverge`",
    )
    obs.add_argument(
        "--fingerprint-every",
        type=int,
        default=None,
        metavar="K",
        help="events per fingerprint checkpoint (default: 512)",
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
    """Run one figure (or all) with the campaign and observability flags."""
    from contextlib import ExitStack

    from repro.experiments.runner import check_scale, seed_list, worker_count
    from repro.obs.config import ObsConfig
    from repro.obs.durable import artifact_files

    if args.figure != "all" and args.figure not in REGISTRY:
        print(
            f"unknown figure {args.figure!r}; try `python -m repro list`",
            file=sys.stderr,
        )
        return 2

    settings = dict(
        scale=1.0 if args.scale is None else check_scale(args.scale),
        seeds=None if args.seeds is None else seed_list(args.seeds),
        jobs=1 if args.jobs is None else worker_count(args.jobs),
        store=args.store,
    )
    config = ObsConfig(
        trace=args.trace,
        timeline=args.timeline,
        timeline_interval=args.timeline_interval,
        fingerprint=args.fingerprint,
        fingerprint_every=args.fingerprint_every,
        metrics=args.metrics,
    )
    if config.timeline is True:
        raise ConfigurationError(
            "a figure run records its timeline to a file: use --timeline FILE "
            "(bare --timeline is for `repro inspect tl.jsonl --timeline`)"
        )
    with ExitStack() as stack:
        try:
            obs = stack.enter_context(config.activate())
        except OSError as exc:
            print(f"cannot write trace file {args.trace}: {exc}", file=sys.stderr)
            return 2
        if args.figure == "all":
            for figure_id, module in REGISTRY.items():
                print(f"== {figure_id} ==")
                print(module.render(module.reproduce(**settings)))
                print()
        else:
            module = REGISTRY[args.figure]
            print(module.render(module.reproduce(**settings)))
    for instrument, path in config.artifacts():
        written = artifact_files(path)
        if written == [path]:
            print(f"{instrument} written to {path}", file=sys.stderr)
        elif written:
            print(
                f"{instrument} written to per-worker shards next to {path}",
                file=sys.stderr,
            )
        else:
            reason = (
                "every trial came from the store" if args.store else "nothing recorded"
            )
            print(
                f"{instrument}: nothing written to {path} ({reason})", file=sys.stderr
            )
    if config.metrics:
        print()
        print(obs.profiler.render_runs())
        if obs.profiler.records:
            print()
            print(obs.profiler.registry().render())
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

    if args.figure == "list":
        print("Available figures:")
        for figure_id, module in REGISTRY.items():
            print(f"  {figure_id:12s} {summary(module)}")
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
