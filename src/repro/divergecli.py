"""``repro diverge`` — localize the first divergent event between two runs.

Usage::

    # Parallel parity: serial vs 4 workers
    python -m repro diverge --a jobs=1 --b jobs=4

    # Fault-injection drill: flip the 40th draw of the medium stream
    python -m repro diverge --a '' --b perturb=medium:40

    # Against a recorded baseline checkpoint stream (e.g. another build)
    python -m repro diverge --a '' --b file=fp_baseline.jsonl

Exit status: 0 when the sides' chained digests match, 1 when a
divergence was found (the report pinpoints the first divergent event),
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.obs.diverge import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_CONTEXT,
    ScenarioSpec,
    SideSpec,
    diverge,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro diverge",
        description=(
            "Run one scenario under two configurations (or load recorded "
            "fingerprint streams), binary-search their checkpoint streams "
            "to the first divergent event, and report it field-by-field."
        ),
    )
    parser.add_argument(
        "--a",
        default="",
        metavar="SPEC",
        help="side A: comma-separated jobs=/perturb= "
        "run options, or file=<recorded fingerprint stream> "
        "(default: the default configuration)",
    )
    parser.add_argument(
        "--b",
        default="",
        metavar="SPEC",
        help="side B, same syntax as --a",
    )
    parser.add_argument(
        "--seeds",
        default="1",
        help="comma-separated seed list for the scenario (default: 1)",
    )
    parser.add_argument("--rows", type=int, default=6)
    parser.add_argument("--cols", type=int, default=6)
    parser.add_argument(
        "--metadata-count", type=int, default=400, dest="metadata_count"
    )
    parser.add_argument(
        "--max-rounds", type=int, default=3, dest="max_rounds"
    )
    parser.add_argument(
        "--sim-cap", type=float, default=120.0, dest="sim_cap"
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=DEFAULT_CHECKPOINT_EVERY,
        dest="checkpoint_every",
        help=f"events per fingerprint checkpoint "
        f"(default: {DEFAULT_CHECKPOINT_EVERY})",
    )
    parser.add_argument(
        "--context",
        type=int,
        default=DEFAULT_CONTEXT,
        help=f"preceding events shown around the divergence "
        f"(default: {DEFAULT_CONTEXT})",
    )
    parser.add_argument(
        "--keep",
        default=None,
        metavar="DIR",
        help="keep the fingerprint streams in DIR instead of a tempdir",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable JSON report instead of text",
    )
    return parser


def _parse_seeds(raw: str) -> List[int]:
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(
            f"--seeds must be a comma-separated integer list, got {raw!r}"
        ) from None
    if not seeds:
        raise ConfigurationError("--seeds must name at least one seed")
    return seeds


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec_a = SideSpec.parse("a", args.a)
        spec_b = SideSpec.parse("b", args.b)
        scenario = ScenarioSpec(
            seeds=tuple(_parse_seeds(args.seeds)),
            rows=args.rows,
            cols=args.cols,
            metadata_count=args.metadata_count,
            max_rounds=args.max_rounds,
            sim_cap_s=args.sim_cap,
        )
        report = diverge(
            spec_a,
            spec_b,
            scenario=scenario,
            checkpoint_every=args.checkpoint_every,
            context=args.context,
            workdir=args.keep,
        )
    except (ConfigurationError, FileNotFoundError) as exc:
        print(f"diverge error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 1 if report.diverged else 0


if __name__ == "__main__":
    raise SystemExit(main())
