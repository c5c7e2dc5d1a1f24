"""Shared fixtures for the figure-regeneration benchmarks.

Each benchmark regenerates one table/figure of the paper's evaluation
through its figure module's ``reproduce`` and ``render`` (the same entry
point as ``python -m repro <figure>``) and records the table both to
stdout and to ``benchmarks/results/<figure>.txt``.

Environment knobs, read here and nowhere else, and checked like the
CLI's ``--seeds`` / ``--scale`` (a bad value fails the run instead of
producing empty or NaN tables):

* ``REPRO_SEEDS``  — number of seeds per point (default 2 here; the paper
  uses 5 — set ``REPRO_SEEDS=5`` for paper-fidelity averaging).
* ``REPRO_SCALE``  — workload scale factor (default 0.25 here; 1.0 is
  paper scale: 5,000–20,000 metadata entries and 20 MB items).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.runner import check_scale, seed_list

RESULTS_DIR = Path(__file__).parent / "results"

#: Benchmark-suite defaults (reduced; env vars override).
DEFAULT_BENCH_SEEDS = 2
DEFAULT_BENCH_SCALE = 0.25


@pytest.fixture(scope="session")
def bench_seeds() -> list:
    """Seeds used per data point."""
    return seed_list(os.environ.get("REPRO_SEEDS", DEFAULT_BENCH_SEEDS))


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Workload scale: 1.0 reproduces the paper's exact parameters."""
    return check_scale(os.environ.get("REPRO_SCALE", DEFAULT_BENCH_SCALE))


@pytest.fixture(scope="session")
def record_table():
    """Callable that persists and prints a rendered figure table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(figure_id: str, table: str) -> None:
        path = RESULTS_DIR / f"{figure_id}.txt"
        path.write_text(table + "\n")
        print(f"\n{table}\n[written to {path}]")

    return _record
