"""The ``repro profile`` subcommand: where does a figure's wall time go?

Usage::

    python -m repro profile fig5                   # hotspot tables
    python -m repro profile fig5 --top 25          # longer handler table
    python -m repro profile fig5 --flame out.txt   # collapsed stacks for
                                                   # flamegraph.pl / speedscope
    python -m repro profile fig5 --memory          # tracemalloc phase deltas
    python -m repro profile fig5 --json            # machine-readable report

Runs one figure (or ``all``) under the kernel profiler
(:mod:`repro.obs.kernelprof`), then renders its per-run table,
per-subsystem / per-handler hotspot tables and, on request, a
collapsed-stack flamegraph file and per-phase memory telemetry
(:mod:`repro.obs.memprof`).

Profiling does not perturb simulation outputs — event order, virtual
time, and RNG draws are untouched (see DESIGN.md §10) — so the figure
tables printed here are identical to an unprofiled run's.

``REPRO_PROFILE=1`` is exported for the duration so campaign workers
(``--jobs N``) profile their trials and ship stats back to this process;
``--memory`` is per-process and therefore forces ``--jobs 1`` unless
``--jobs`` is given explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.experiments.figures import REGISTRY
from repro.obs.kernelprof import KernelProfiler
from repro.obs.memprof import MemoryTelemetry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Profile a figure run: kernel hotspots, flamegraph "
        "export, optional memory telemetry.",
    )
    parser.add_argument(
        "figure",
        help="figure id (see `repro list`) or `all`",
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
        "REPRO_JOBS or 1; --memory defaults to 1)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="handlers to list in the hotspot table (default: 15)",
    )
    parser.add_argument(
        "--flame",
        metavar="FILE",
        default=None,
        help="write collapsed-stack flamegraph text to FILE "
        "(flamegraph.pl / speedscope compatible)",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="record tracemalloc snapshots at phase boundaries "
        "(setup / discovery rounds / retrieval) with per-subsystem "
        "allocator attribution",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable JSON report instead of tables "
        "(suppresses the figure's own output)",
    )
    return parser


def _json_report(
    figure: str,
    kernel: KernelProfiler,
    memory: Optional[MemoryTelemetry],
    top: int,
) -> str:
    stats = kernel.stats()
    handlers = sorted(stats.items(), key=lambda item: -item[1][1])[:top]
    report = {
        "figure": figure,
        "kernel": kernel.summary(),
        "subsystems": {
            name: {"events": count, "ns": ns}
            for name, (count, ns) in sorted(kernel.subsystem_totals().items())
        },
        "handlers": [
            {
                "subsystem": subsystem,
                "handler": handler,
                "events": count,
                "ns": ns,
            }
            for (subsystem, handler), (count, ns) in handlers
        ],
        "runs": kernel.runs_summary(),
    }
    if memory is not None:
        report["memory"] = {
            "summary": memory.summary(),
            "phases": [
                {
                    "name": record.name,
                    "current_kb": round(record.current_kb, 1),
                    "peak_kb": round(record.peak_kb, 1),
                    "growth": [
                        {
                            "subsystem": subsystem,
                            "delta_kb": round(delta_kb, 1),
                            "delta_blocks": delta_blocks,
                        }
                        for subsystem, delta_kb, delta_blocks in record.growth
                    ],
                }
                for record in memory.phases
            ],
        }
    return json.dumps(report, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(
        list(sys.argv[1:] if argv is None else argv)
    )
    if args.figure != "all" and args.figure not in REGISTRY:
        print(
            f"unknown figure {args.figure!r}; try `python -m repro list`",
            file=sys.stderr,
        )
        return 2

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
    # Campaign workers check this env knob to profile their trials.
    os.environ["REPRO_PROFILE"] = "1"

    kernel = KernelProfiler()
    memory = MemoryTelemetry() if args.memory else None
    figure_outputs: List[str] = []
    try:
        with ExitStack() as stack:
            stack.enter_context(kernel.activate())
            if memory is not None:
                stack.enter_context(memory.activate())
            if args.figure == "all":
                for figure_id, module in REGISTRY.items():
                    figure_outputs.append(f"== {figure_id} ==")
                    figure_outputs.append(module.main())
                    figure_outputs.append("")
            else:
                figure_outputs.append(REGISTRY[args.figure].main())
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if args.as_json:
        print(_json_report(args.figure, kernel, memory, args.top))
    else:
        for chunk in figure_outputs:
            print(chunk)
        print()
        print(kernel.render_runs())
        print()
        print(kernel.render(top=args.top))
        if memory is not None:
            print()
            print(memory.render())
    if args.flame:
        try:
            kernel.write_flamegraph(args.flame)
        except OSError as exc:
            print(
                f"cannot write flamegraph file {args.flame}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"flamegraph stacks written to {args.flame}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
