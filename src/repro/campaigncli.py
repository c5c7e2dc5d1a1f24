"""The ``repro campaign`` subcommand: operate on a campaign store.

Usage::

    repro campaign status --store runs/store        # what's cached
    repro campaign gc --store runs/store            # sweep *.tmp litter
                                                    # and corrupt entries

Every subcommand requires ``--store``.  A campaign launched with
``repro fig12 --store runs/store --jobs 8`` and then killed, or stopped
by a failing trial, resumes by re-running the same command: every trial
already completed is served from the store and the final table is
bit-identical to an uninterrupted run.  Keep the knobs identical to the
original invocation: the store key includes the observability profile,
and ``--seeds``/``--scale`` shape the trial parameters, so changed knobs
simply miss the cache (sound, just not a resume).
"""

from __future__ import annotations

import argparse
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Inspect or garbage-collect a campaign store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    status = sub.add_parser(
        "status", help="summarize the store's entries by trial"
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

    gc = sub.add_parser(
        "gc", help="delete *.tmp leftovers and corrupt entries"
    )
    gc.add_argument(
        "--store",
        required=True,
        help="campaign store directory",
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
    print(f"  entries: {report['entries']}")
    if report["by_trial"]:
        print("  by trial:")
        for name, count in report["by_trial"].items():
            print(f"    {name:<48s} {count}")
    print(f"  corrupt: {report['corrupt']}  tmp: {report['tmp']}")
    print(f"  size: {report['bytes']} bytes")
    return 0


def _gc(root: str) -> int:
    from repro.experiments.store import CampaignStore

    removed = CampaignStore(root).gc()
    print(
        f"removed {removed['tmp']} tmp file(s), "
        f"{removed['corrupt']} corrupt entry(s)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "status":
        return _status(args.store, args.as_json)
    return _gc(args.store)


if __name__ == "__main__":
    raise SystemExit(main())
