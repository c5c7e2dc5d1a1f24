"""Unit tests for the EXPERIMENTS.md generator and the figure contracts."""

from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.figures import REGISTRY, fig4_grid_size, summary
from repro.experiments.figures.common import failed_claims
from repro.experiments.report import (
    ABLATIONS,
    BEGIN_MARKER,
    END_MARKER,
    SNAPSHOT_DIR,
    build_experiments_md,
    main,
    read_results,
)

REPO = Path(__file__).resolve().parents[2]

SKELETON = (
    f"# EXPERIMENTS\n\nhand-written\n\n{BEGIN_MARKER}\nstale\n{END_MARKER}\n"
    "\n## Known deviations\n"
)


def test_every_figure_declares_paper_and_claims():
    for figure_id, module in REGISTRY.items():
        assert module.PAPER.strip(), figure_id
        assert module.CLAIMS, figure_id
        for claim in module.CLAIMS:
            assert claim.text.strip(), figure_id


def test_fig4_rising_recall_fails_exactly_the_drop_claim():
    rows = [
        {"recall": recall, "latency_s": latency, "overhead_mb": overhead}
        for recall, latency, overhead in zip(
            (0.98, 0.985, 0.99, 0.995, 1.0),
            (0.2, 0.4, 0.7, 1.2, 1.6),
            (0.04, 0.2, 0.5, 1.2, 2.1),
        )
    ]
    failed = failed_claims(fig4_grid_size.CLAIMS, rows)
    assert len(failed) == 1
    assert "recall drops as hops grow" in failed[0]


def test_read_results(tmp_path):
    (tmp_path / "fig4.txt").write_text("TABLE CONTENT\n")
    tables = read_results(tmp_path)
    assert tables == {"fig4": "TABLE CONTENT"}


def test_read_results_missing_dir(tmp_path):
    assert read_results(tmp_path / "nope") == {}


def test_build_embeds_tables_and_targets(tmp_path):
    (tmp_path / "fig4.txt").write_text("FIG4 MEASURED ROWS\n")
    doc = build_experiments_md(tmp_path, SKELETON)
    assert "FIG4 MEASURED ROWS" in doc
    assert "Paper reports:" in doc
    # Figures without tables point at the bench command.
    assert "pytest benchmarks/ --benchmark-only -k fig3" in doc


def test_build_mentions_every_figure_title(tmp_path):
    doc = build_experiments_md(tmp_path, SKELETON)
    for module in REGISTRY.values():
        assert f"### {summary(module).rstrip('.')}\n" in doc
        assert module.PAPER in doc
        for claim in module.CLAIMS:
            assert f"- {claim.text}\n" in doc
    for _, description in ABLATIONS:
        assert description in doc


def test_build_rewrites_only_the_marked_region(tmp_path):
    doc = build_experiments_md(tmp_path, SKELETON)
    assert doc.startswith(f"# EXPERIMENTS\n\nhand-written\n\n{BEGIN_MARKER}\n")
    assert doc.endswith(f"{END_MARKER}\n\n## Known deviations\n")
    assert "stale" not in doc
    assert build_experiments_md(tmp_path, doc) == doc


def test_build_refuses_a_document_without_markers(tmp_path):
    with pytest.raises(ValueError):
        build_experiments_md(tmp_path, "# EXPERIMENTS\n")


def test_real_results_directory_renders():
    results = REPO / "benchmarks" / "results"
    doc = build_experiments_md(results, (REPO / "EXPERIMENTS.md").read_text("utf-8"))
    assert doc.startswith("# EXPERIMENTS")


def test_committed_experiments_md_rebuilds_byte_identical():
    committed = (REPO / "EXPERIMENTS.md").read_text("utf-8")
    assert build_experiments_md(REPO / SNAPSHOT_DIR, committed) == committed


def test_report_main_without_markers_exits_2(tmp_path, capsys):
    output = tmp_path / "EXPERIMENTS.md"
    output.write_text("# EXPERIMENTS\n", encoding="utf-8")
    assert main([str(tmp_path), str(output)]) == 2
    assert "no generated region" in capsys.readouterr().err
    assert output.read_text("utf-8") == "# EXPERIMENTS\n"


def test_repro_report_reads_the_paper_scale_snapshot(tmp_path, monkeypatch, capsys):
    for directory, table in (
        ("results_paper_scale", "PAPER-SCALE ROWS"),
        ("results", "REDUCED-SCALE ROWS"),
    ):
        (tmp_path / "benchmarks" / directory).mkdir(parents=True)
        (tmp_path / "benchmarks" / directory / "fig4.txt").write_text(table + "\n")
    (tmp_path / "EXPERIMENTS.md").write_text(SKELETON, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["report"]) == 0
    doc = (tmp_path / "EXPERIMENTS.md").read_text("utf-8")
    assert "PAPER-SCALE ROWS" in doc
    assert "REDUCED-SCALE ROWS" not in doc


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
