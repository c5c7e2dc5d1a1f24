"""The ``repro campaign`` subcommand: operate on a campaign store.

Usage::

    repro campaign status --store runs/store        # what's cached
    repro campaign resume fig12 --store runs/store  # re-run a figure,
                                                    # skipping cached
                                                    # trials
    repro campaign gc --store runs/store            # sweep *.tmp litter
                                                    # and corrupt entries
    repro campaign gc --failed --store runs/store   # also drop failure
                                                    # records

Every subcommand requires ``--store``.  A campaign launched with
``repro fig12 --store runs/store --jobs 8`` (then killed) resumes with
``repro campaign resume fig12 --store runs/store`` — every trial already
completed is served from the store and the final table is bit-identical
to an uninterrupted run.

``resume`` accepts the same knobs as a figure run (``--seeds``,
``--scale``, ``--jobs`` and the observability flags); they are forwarded
verbatim to the figure run, together with ``--store``.  Keep them
identical to the original invocation: the store key includes the
observability profile, and ``--seeds``/``--scale`` shape the trial
parameters, so changed knobs simply miss the cache (sound, just not a
resume).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Inspect, resume, or garbage-collect a campaign store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    status = sub.add_parser(
        "status", help="summarize the store's entries by kind and trial"
    )
    status.add_argument(
        "--store",
        required=True,
        help="campaign store directory",
    )
    status.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable JSON instead of a table",
    )

    resume = sub.add_parser(
        "resume",
        help="re-run a figure against the store, skipping cached trials",
    )
    resume.add_argument("figure", help="figure id (see `repro list`)")
    resume.add_argument(
        "--store",
        required=True,
        help="campaign store directory",
    )

    gc = sub.add_parser(
        "gc", help="delete *.tmp leftovers and corrupt entries"
    )
    gc.add_argument(
        "--store",
        required=True,
        help="campaign store directory",
    )
    gc.add_argument(
        "--failed",
        action="store_true",
        help="also delete failure records (they re-run on resume anyway)",
    )
    return parser


def _status(root: str, as_json: bool) -> int:
    import json

    from repro.experiments.store import CampaignStore

    report = CampaignStore(root).status()
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"campaign store {report['root']}")
    print(
        f"  entries: {report['entries']} "
        f"({report['ok']} ok, {report['failed']} failed)"
    )
    for kind, count in report["by_kind"].items():
        print(f"    {kind:<8s} {count}")
    if report["by_trial"]:
        print("  by trial:")
        for name, count in report["by_trial"].items():
            print(f"    {name:<48s} {count}")
    print(f"  corrupt: {report['corrupt']}  tmp: {report['tmp']}")
    print(f"  size: {report['bytes']} bytes")
    return 0


def _gc(root: str, failed: bool) -> int:
    from repro.experiments.store import CampaignStore

    removed = CampaignStore(root).gc(failed=failed)
    print(
        f"removed {removed['tmp']} tmp file(s), "
        f"{removed['corrupt']} corrupt entry(s), "
        f"{removed['failed']} failure record(s)"
    )
    return 0


def _resume(root: str, figure: str, passthrough: List[str]) -> int:
    # A figure run against the store skips its cached trials.
    from repro.cli import main as cli_main

    return cli_main([figure, *passthrough, "--store", root])


def main(argv: Optional[List[str]] = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    # `resume` forwards unknown flags (--seeds, --jobs, --trace, ...) to
    # the figure runner instead of rejecting them.
    parser = build_parser()
    args, extra = parser.parse_known_args(raw_argv)
    if extra and args.command != "resume":
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "status":
        return _status(args.store, args.as_json)
    if args.command == "gc":
        return _gc(args.store, args.failed)
    return _resume(args.store, args.figure, extra)


if __name__ == "__main__":
    raise SystemExit(main())
