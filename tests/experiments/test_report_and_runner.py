"""Tests for the report helpers and the consolidated experiment runner."""

import pytest

from repro.api.experiments import ExperimentRunner, canonical_keys
from repro.experiments import run_all
from repro.experiments.report import (
    format_mapping,
    format_series,
    format_table,
    render_result,
)


class TestReportHelpers:
    def test_format_table_alignment_and_content(self):
        text = format_table(
            headers=["name", "value"],
            rows=[("alpha", 1.0), ("b", 0.123456789)],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in text and "0.123457" in text
        # All data rows have the same rendered width.
        assert len(lines[3]) == len(lines[4])

    def test_format_table_precision(self):
        text = format_table(["x"], [(0.123456789,)], precision=3)
        assert "0.123" in text and "0.123457" not in text

    def test_format_series(self):
        text = format_series("curve", [0.1, 0.2], [1.0, 2.0])
        assert text.startswith("curve:")
        assert "(0.1, 1)" in text and "(0.2, 2)" in text

    def test_format_mapping(self):
        text = format_mapping({"a": 1.5, "b": "x"})
        assert "a = 1.5" in text and "b = x" in text


class TestRunAll:
    def test_known_ids(self):
        assert set(canonical_keys()) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
        }

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            ExperimentRunner().run("E99", scale="quick")

    @pytest.mark.parametrize("identifier", ["E1", "E2", "E5", "E6"])
    def test_individual_quick_reports(self, identifier):
        report = render_result(ExperimentRunner().run(identifier, scale="quick"))
        assert identifier in report or "Example" in report or "Theorem" in report

    def test_run_many_selected(self):
        results = ExperimentRunner().run_many(["E1", "E6"], scale="quick")
        assert [r.key for r in results] == ["E1", "E6"]
        assert all(render_result(r) for r in results)

    @pytest.mark.slow
    def test_cli_main_quick_subset(self, capsys):
        exit_code = run_all.main(["--only", "E1", "E2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "### E1" in captured.out and "### E2" in captured.out
