"""Tests for the experiment runner registry and report plumbing."""


import pytest

from repro.cli import main
from repro.core import PicassoExecutor
from repro.data import criteo
from repro.experiments import runner
from repro.experiments.common import format_table
from repro.hardware import eflops_cluster
from repro.models import dlrm


class TestRunnerRegistry:
    def test_every_table_and_figure_is_registered(self):
        titles = [title for title, _run, _claims in runner.EXPERIMENTS]
        for required in ("Fig. 1", "Fig. 3", "Fig. 5", "Tab. III",
                         "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13",
                         "Tab. IV", "Tab. V", "Fig. 14", "Tab. VI",
                         "Fig. 15", "Tab. VII", "Tab. VIII", "Tab. IX",
                         "Tab. X"):
            assert any(required in title for title in titles), required

    def test_registry_entries_are_callable(self):
        for _title, run, claims in runner.EXPERIMENTS:
            assert callable(run)
            assert callable(claims)

    def test_render_handles_empty(self):
        assert "no rows" in runner._render("x", [])

    def test_render_table(self):
        text = runner._render("t", [{"a": 1}])
        assert "== t ==" in text
        assert "a" in text


class TestRunReportPlumbing:
    @pytest.fixture(scope="class")
    def report(self):
        model = dlrm(criteo(0.001))
        return PicassoExecutor(model, eflops_cluster(2)).run(
            512, iterations=2)

    def test_breakdown_fractions_bounded(self, report):
        for values in report.breakdown.values():
            assert 0.0 <= values["exposed"] <= values["active"] <= 1.0

    def test_utilizations_bounded(self, report):
        assert 0.0 <= report.sm_utilization <= 1.0
        assert 0.0 <= report.sm_flops_utilization <= 1.0
        assert report.sm_flops_utilization <= report.sm_utilization + 1e-9

    def test_rates_nonnegative(self, report):
        assert report.pcie_gbps >= 0.0
        assert report.net_gbps >= 0.0
        assert report.nvlink_gbps == 0.0  # EFLOPS has no NVLink

    def test_counts_consistent(self, report):
        assert report.op_count > report.packed_embeddings
        assert report.micro_ops > 0

    def test_infinite_hours_on_zero_ips(self, report):
        from dataclasses import replace
        broken = replace(report, ips=0.0, result=report.result)
        assert broken.gpu_core_hours(1e9) == float("inf")


class TestFormatTable:
    def test_missing_keys_render_empty(self):
        text = format_table([{"a": 1}, {"b": 2}], ["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows

    def test_empty_rows(self):
        text = format_table([], ["a"])
        assert "a" in text


class TestCliExperimentCommand:
    def test_substring_dispatch(self, capsys):
        assert main(["experiment", "Tab. V operation"]) == 0
        out = capsys.readouterr().out
        assert "picasso_ops" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "Tab. 99"])
