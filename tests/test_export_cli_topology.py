"""Tests for trace export and the CLI."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.sim import Engine, Phase, Resource, ResourceKind, SimTask
from repro.sim.export import ascii_gantt, busy_summary, timeline_json


def _result():
    resources = {
        ResourceKind.NET: Resource(ResourceKind.NET, 10.0),
        ResourceKind.GPU_SM: Resource(ResourceKind.GPU_SM, 100.0),
    }
    first = SimTask("a", [Phase(ResourceKind.NET, 50.0)])
    second = SimTask("b", [Phase(ResourceKind.GPU_SM, 200.0)])
    second.depends_on(first)
    return Engine(resources).run([first, second])


class TestExport:
    def test_timeline_json_schema(self):
        payload = json.loads(timeline_json(_result(), bucket=1.0))
        assert payload["makespan"] == pytest.approx(7.0)
        assert "net" in payload["buckets"]
        series = payload["buckets"]["net"]["utilization"]
        assert series[0] == pytest.approx(1.0)
        assert series[-1] == pytest.approx(0.0)

    def test_timeline_json_final_partial_bucket(self):
        # makespan 7.0 with bucket 2.0 -> 4 buckets; the last covers
        # only [6, 7) and must be normalized by that 1 s, not by 2 s.
        payload = json.loads(timeline_json(_result(), bucket=2.0))
        series = payload["buckets"]["gpu_sm"]["utilization"]
        assert len(series) == 4
        # gpu_sm runs 5..7 at full rate: bucket [4,6) is half busy,
        # and the trailing partial bucket [6,7) is fully busy.
        assert series[-2] == pytest.approx(0.5)
        assert series[-1] == pytest.approx(1.0)

    def test_ascii_gantt_rows(self):
        chart = ascii_gantt(_result(), width=20)
        lines = chart.splitlines()
        assert any(line.startswith("net") for line in lines)
        assert any(line.startswith("gpu_sm") for line in lines)

    def test_ascii_gantt_width_validation(self):
        with pytest.raises(ValueError):
            ascii_gantt(_result(), width=2)

    def test_busy_summary(self):
        summary = busy_summary(_result())
        assert summary["net"]["busy_fraction"] == pytest.approx(5 / 7,
                                                                abs=0.01)
        assert 0 <= summary["gpu_sm"]["mean_utilization"] <= 1


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.command == "list"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "DLRM" in out
        assert "Criteo" in out

    def test_simulate_command(self, capsys):
        code = main(["simulate", "--model", "DLRM", "--dataset",
                     "Criteo", "--scale", "0.001", "--cluster",
                     "eflops:2", "--batch", "512", "--iterations", "1"])
        assert code == 0
        assert "ips" in capsys.readouterr().out

    def test_train_command(self, capsys):
        code = main(["train", "--variant", "wdl", "--steps", "5",
                     "--batch", "128"])
        assert code == 0
        assert "AUC" in capsys.readouterr().out

    def test_gantt_command(self, capsys):
        code = main(["gantt", "--model", "DLRM", "--dataset", "Criteo",
                     "--scale", "0.001", "--cluster", "eflops:2",
                     "--batch", "512", "--iterations", "1",
                     "--width", "30"])
        assert code == 0
        assert "|" in capsys.readouterr().out

    def test_profile_command(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main(["profile", "--model", "DLRM", "--dataset",
                     "Criteo", "--scale", "0.001", "--cluster",
                     "eflops:2", "--batch", "512", "--iterations", "1",
                     "--output", str(trace_path), "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "coverage" in out
        (engine_line,) = [line for line in out.splitlines()
                          if line.startswith("engine: ")]
        assert "lane rebuilds" in engine_line
        assert "peak occupancy launch=" in engine_line
        assert engine_line.endswith("swept slots/event")
        lines = out.splitlines()
        compile_line = lines[lines.index(engine_line) + 1]
        assert re.fullmatch(r"compile: [\d,]+ tasks/iteration x 1 "
                            r"iteration\(s\), one iteration built and "
                            r"stamped", compile_line), compile_line
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]

    def test_profile_compile_line_with_prefetch_stream(self, capsys,
                                                       tmp_path):
        code = main(["profile", "--model", "DLRM", "--dataset",
                     "Criteo", "--scale", "0.001", "--cluster",
                     "eflops:2", "--batch", "512", "--iterations", "3",
                     "--prefetch-lookahead-depth", "4",
                     "--output", str(tmp_path / "trace.json")])
        assert code == 0
        (compile_line,) = [line for line in
                           capsys.readouterr().out.splitlines()
                           if line.startswith("compile: ")]
        assert compile_line.endswith(
            "x 3 iteration(s), iteration 0 built separately "
            "(prefetch stream on)")

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--model", "BERT"])

    def test_bad_cluster_spec(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--cluster", "tpu:4"])
