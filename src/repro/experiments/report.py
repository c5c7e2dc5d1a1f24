"""EXPERIMENTS.md generator: paper targets vs measured tables.

Benchmarks write one rendered table per figure to
``benchmarks/results/<id>.txt``; this module assembles them, together with
the paper's reported numbers and the qualitative shape each figure must
exhibit, into the repository's EXPERIMENTS.md.

Regenerate with::

    python -m repro.experiments.report [results_dir] [output_md]
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

#: Per-figure reproduction contract: what the paper reports, and which
#: qualitative shape our tables must show.
@dataclass(frozen=True)
class FigureTarget:
    figure_id: str
    title: str
    paper_reports: str
    shape: str


TARGETS: List[FigureTarget] = [
    FigureTarget(
        "fig3",
        "Fig. 3 — single-hop reception (prototype)",
        "raw UDP ≈10–14%; leaky bucket 40–90% falling with senders; "
        "bucket+ack 85–99%.",
        "raw crushed by OS-buffer overflow; bucket degrades with "
        "contention; ack recovers most losses.",
    ),
    FigureTarget(
        "lbparams",
        "§V-4 — LeakingRate / BucketCapacity exploration",
        "reception >97% until the leak rate exceeds the broadcast budget, "
        "then drops; large capacities overflow the OS buffer; best "
        "300 KB / 4.5 Mbps.",
        "cliff past the MAC rate on the leak-rate sweep; monotone decline "
        "on the capacity sweep.",
    ),
    FigureTarget(
        "retrparams",
        "§V-4 — RetrTimeout / MaxRetrTime exploration",
        "reception improves then plateaus beyond ≈0.2 s timeout and "
        "≈4 retries.",
        "more retries help with diminishing returns.",
    ),
    FigureTarget(
        "saturation",
        "§VI-B — single-round PDD saturation scan (no ack)",
        "recall ≈0.35 (1 copy) / ≈0.55 (2 copies ≤5k entries), degrading "
        "beyond ≈10,000 entries.",
        "recall declines with load; redundancy helps; never complete.",
    ),
    FigureTarget(
        "fig4",
        "Fig. 4 — single-round PDD vs grid size",
        "recall 100% → 72.3% for 3×3 → 11×11 (1–5 hops); latency/overhead "
        "0.3 s/0.04 MB → 3.5 s/1.71 MB.",
        "recall falls and cost rises monotonically with network radius.",
    ),
    FigureTarget(
        "fig5",
        "Fig. 5 — multi-round PDD vs T and T_d (T_r = 0)",
        "recall stabilises for T ≥ 0.6–0.8 s; T_d=0 reaches 1.0 vs ≈0.95 "
        "at T_d=0.3; smaller T_d costs more rounds/latency/overhead "
        "(5.6 s/5.13 MB vs 3.4 s/3.85 MB).",
        "T_d=0 maximises recall at extra cost; larger windows help.",
    ),
    FigureTarget(
        "fig6",
        "Fig. 6 — multi-round PDD vs metadata amount",
        "recall 100% from 5k to 20k entries; latency 5.6 → 11.2 s "
        "(sublinear); overhead 5.13 → 22.21 MB (≈linear).",
        "full recall under stress; sublinear latency; linear overhead.",
    ),
    FigureTarget(
        "fig7",
        "Fig. 7 — PDD with sequential consumers",
        "≈100% recall for all; latency 5–7 s (first two) shrinking to "
        "0.2 s for the 5th, which had cached >95% beforehand.",
        "later consumers are drastically faster (overheard caching).",
    ),
    FigureTarget(
        "fig8",
        "Fig. 8 — PDD with simultaneous consumers",
        "100% recall; per-consumer latency grows sublinearly then "
        "stabilises (mixedcast).",
        "5 consumers cost far less than 5 independent discoveries.",
    ),
    FigureTarget(
        "fig9_10",
        "Figs. 9–10 — PDD under mobility",
        "recall ≈100%, latency ≤2 s, overhead ≤3 MB at every churn scale "
        "0.5×–2× in both locations.",
        "flat recall/latency across the mobility range.",
    ),
    FigureTarget(
        "fig11",
        "Fig. 11 — PDR vs item size",
        "recall 100%; 8.2 s/4.83 MB at 1 MB → 46.1 s/54.22 MB at 20 MB "
        "(≈linear); overhead ≈2–3× item size.",
        "≈linear growth; overhead a small multiple of the item size.",
    ),
    FigureTarget(
        "fig12",
        "Fig. 12 — PDR under mobility (20 MB)",
        "latency ≈42–48 s flat across 0.5×–2× mobility; overhead "
        "24–27 MB; recall 100%.",
        "no blow-up as churn doubles.",
    ),
    FigureTarget(
        "fig13_14",
        "Figs. 13–14 — PDR vs MDR under redundancy (20 MB)",
        "r=1: MDR slightly better (10.7 s/51.34 MB vs 13.5 s/54.22 MB); "
        "r=5: MDR 27.6 s/94.23 MB vs PDR 11.9 s/45.98 MB — MDR ≈linear "
        "growth, PDR flat/decreasing, ending ≈half of MDR.",
        "crossover at low redundancy; MDR grows, PDR flat or better.",
    ),
    FigureTarget(
        "fig15",
        "Fig. 15 — PDR with sequential consumers (20 MB)",
        "recall 100%; latency 46.1 → 38.1 s; overhead 54.22 → 23.11 MB "
        "from 1st to 5th consumer.",
        "later consumers far cheaper (chunks cached closer).",
    ),
    FigureTarget(
        "fig16",
        "Fig. 16 — PDR with simultaneous consumers (20 MB)",
        "latency and overhead first increase then stabilise with more "
        "consumers.",
        "growth flattens as consumers share transmissions.",
    ),
]

#: Extension ablations (not paper figures) included for completeness.
ABLATIONS = [
    ("ablation_redundancy_detection", "Bloom redundancy detection on/off"),
    ("ablation_ack", "per-hop ack/retransmission on/off"),
    ("ablation_caching", "opportunistic chunk caching on/off"),
    ("ablation_lingering_vs_interest", "lingering queries vs one-shot Interests (§VIII)"),
]

HEADER = """# EXPERIMENTS — paper vs measured

Every table below is regenerated by `pytest benchmarks/ --benchmark-only`
(tables land in `benchmarks/results/`).  The suite and `python -m repro
<figure>` run the same entry point, each figure module's
`reproduce(scale, seeds)` and `render(rows)`.  The numbers shown here
come from a paper-scale run (2 seeds at scale 1.0), snapshotted in
`benchmarks/results_paper_scale/`; the benchmark suite's default is a
reduced scale (2 seeds at scale 0.25, see `benchmarks/conftest.py`) for
quick turnaround.  Rebuild this file with `python -m repro.experiments.report
benchmarks/results_paper_scale EXPERIMENTS.md` after a fresh paper-scale
run.

**How to read this document.**  Absolute values are *not* expected to
match the paper — the substrate is an event-driven medium model calibrated
to the prototype's single-hop parameters, not the authors' NS-3 + testbed
(see DESIGN.md §2 and §6).  What must match, and does, is each figure's
*shape*: who wins, monotonicity, crossovers, and robustness claims.
Notable systematic offsets: our multi-hop overhead ratios run ≈2× the
paper's (more conservative spatial reuse in the medium model), and
large-item latencies are correspondingly higher.
"""


def read_results(results_dir: Path) -> Dict[str, str]:
    """Load every recorded table, keyed by figure id."""
    tables = {}
    if results_dir.is_dir():
        for path in sorted(results_dir.glob("*.txt")):
            tables[path.stem] = path.read_text().rstrip()
    return tables


def build_experiments_md(results_dir: Path) -> str:
    """Assemble the full EXPERIMENTS.md text."""
    tables = read_results(results_dir)
    parts = [HEADER]
    parts.append("## Paper figures\n")
    for target in TARGETS:
        parts.append(f"### {target.title}\n")
        parts.append(f"**Paper reports:** {target.paper_reports}\n")
        parts.append(f"**Shape to reproduce:** {target.shape}\n")
        table = tables.get(target.figure_id)
        if table:
            parts.append("**Measured:**\n")
            parts.append("```")
            parts.append(table)
            parts.append("```\n")
        else:
            parts.append(
                "_No recorded table — run "
                f"`pytest benchmarks/ --benchmark-only -k {target.figure_id}`._\n"
            )
    parts.append("## Extension ablations (beyond the paper)\n")
    for figure_id, description in ABLATIONS:
        parts.append(f"### {description}\n")
        table = tables.get(figure_id)
        if table:
            parts.append("```")
            parts.append(table)
            parts.append("```\n")
        else:
            parts.append("_No recorded table yet._\n")
    return "\n".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    results_dir = Path(args[0]) if args else Path("benchmarks/results")
    output = Path(args[1]) if len(args) > 1 else Path("EXPERIMENTS.md")
    output.write_text(build_experiments_md(results_dir))
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
