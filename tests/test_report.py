"""Tests for the reproduction-report generator."""

import json

import pytest

from repro.experiments.report import generate_report


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("report")
        path = generate_report(
            out,
            experiment_ids=["fig02_03", "fig01"],
            seed=0,
            echo=lambda *_: None,
        )
        return out, path

    def test_report_markdown(self, bundle):
        out, path = bundle
        assert path.name == "REPORT.md"
        text = path.read_text()
        assert "# Reproduction report" in text
        assert "fig02_03" in text and "fig01" in text
        assert "Figure files" in text
        # each experiment's claim rows, measured at the report's seed
        assert "| `fig01.median` | 699 | in [657.4, 726.6] | holds |" in text

    def test_csv_artifacts(self, bundle):
        out, _ = bundle
        for exp_id in ("fig02_03", "fig01"):
            csv = out / "csv" / f"{exp_id}.csv"
            assert csv.exists()
            assert len(csv.read_text().splitlines()) >= 2

    def test_figure_artifacts(self, bundle):
        out, _ = bundle
        figures = out / "figures"
        assert (figures / "fig2_hashed_ring.svg").exists()
        assert (figures / "fig3_even_ring.svg").exists()
        density = figures / "fig1_distribution.csv"
        lines = density.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,probability"
        probs = [float(line.split(",")[2]) for line in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=0.01)

    def test_cli_report_command(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "report",
                "--out",
                str(tmp_path / "r"),
                "--only",
                "fig02_03",
            ]
        )
        assert code == 0
        assert (tmp_path / "r" / "REPORT.md").exists()
