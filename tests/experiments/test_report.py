"""Unit tests for the EXPERIMENTS.md generator."""

from pathlib import Path

from repro.experiments.figures import REGISTRY
from repro.experiments.report import (
    ABLATIONS,
    TARGETS,
    build_experiments_md,
    read_results,
)


def test_targets_cover_every_registry_figure():
    assert {t.figure_id for t in TARGETS} == set(REGISTRY)


def test_read_results(tmp_path):
    (tmp_path / "fig4.txt").write_text("TABLE CONTENT\n")
    tables = read_results(tmp_path)
    assert tables == {"fig4": "TABLE CONTENT"}


def test_read_results_missing_dir(tmp_path):
    assert read_results(tmp_path / "nope") == {}


def test_build_embeds_tables_and_targets(tmp_path):
    (tmp_path / "fig4.txt").write_text("FIG4 MEASURED ROWS\n")
    doc = build_experiments_md(tmp_path)
    assert "FIG4 MEASURED ROWS" in doc
    assert "Paper reports:" in doc
    # Figures without tables point at the bench command.
    assert "pytest benchmarks/ --benchmark-only -k fig3" in doc


def test_build_mentions_every_figure_title(tmp_path):
    doc = build_experiments_md(tmp_path)
    for target in TARGETS:
        assert target.title in doc
    for _, description in ABLATIONS:
        assert description in doc


def test_real_results_directory_renders():
    results = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    doc = build_experiments_md(results)
    assert doc.startswith("# EXPERIMENTS")


# ----------------------------------------------------------------------
# Table rendering: the pipeline that feeds every recorded results table
# ----------------------------------------------------------------------
from repro.experiments.runner import render_table


def test_render_table_layout():
    text = render_table(
        "My title",
        ["grid", "recall"],
        [{"grid": "3x3", "recall": 1.0}, {"grid": "11x11", "recall": 0.72}],
    )
    lines = text.splitlines()
    assert lines[0] == "My title"
    assert set(lines[1]) == {"-"}  # rule under the title
    assert lines[2].split() == ["grid", "recall"]
    assert lines[4].split() == ["3x3", "1.0"]
    assert lines[5].split() == ["11x11", "0.72"]
    assert lines[-1] == lines[1]  # closing rule


def test_render_table_blanks_missing_cells():
    text = render_table("t", ["a", "b"], [{"a": 1}])
    row = text.splitlines()[4]
    assert "1" in row
    assert row.rstrip().endswith("1")  # the b cell rendered empty
