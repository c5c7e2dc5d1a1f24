"""Every figure's shape claims hold on the committed paper-scale snapshot.

``benchmarks/bench_figures.py`` checks the claims on freshly reproduced
rows, which takes minutes.  Here each table under
``benchmarks/results_paper_scale/`` is parsed back into rows, so an edit to
a claim (or to the snapshot) that breaks the contract fails in seconds.
"""

import re
from pathlib import Path

import pytest

from repro.experiments.figures import REGISTRY
from repro.experiments.figures.common import failed_claims
from repro.experiments.runner import render_table

SNAPSHOT = Path(__file__).resolve().parents[2] / "benchmarks" / "results_paper_scale"


def _coerce(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_table(text):
    """Rows of a ``render_table`` table: title, rule, header, rule, rows,
    rule.  Each column starts where its header name starts."""
    lines = text.splitlines()
    header = lines[2]
    starts = [match.start() for match in re.finditer(r"\S+", header)]
    bounds = list(zip(starts, starts[1:] + [None]))
    columns = [(header[start:end].strip(), (start, end)) for start, end in bounds]
    return [
        {name: _coerce(line[start:end].strip()) for name, (start, end) in columns}
        for line in lines[4:-1]
    ]


def test_parse_table_round_trips_render_table():
    rows = [
        {"grid": "3x3", "max_hops": 1, "recall": 1.0, "latency_s": 0.23},
        {"grid": "11x11", "max_hops": 5, "recall": 0.853, "latency_s": 12.5},
    ]
    assert parse_table(render_table("title", list(rows[0]), rows)) == rows


@pytest.mark.parametrize("figure_id", list(REGISTRY))
def test_claims_hold_on_paper_scale_snapshot(figure_id):
    rows = parse_table((SNAPSHOT / f"{figure_id}.txt").read_text(encoding="utf-8"))
    assert rows
    assert failed_claims(REGISTRY[figure_id].CLAIMS, rows) == []
