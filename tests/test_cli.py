"""The generated CLI: flags derived from the facade configs' fields."""

import argparse
import pathlib
import re
import shlex
import warnings

import pytest

from repro.api import RunConfig, ServeConfig, StreamConfig, TuneConfig
from repro.cli import build_parser, main
from repro.prefetch import PrefetchConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: subcommand -> the config its bare invocation must build.
DEFAULTS = {
    "simulate": RunConfig(),
    "ablation": RunConfig(),
    "gantt": RunConfig(),
    "profile": RunConfig(),
    "replay": RunConfig(),
    "serve": ServeConfig(),
    "stream": StreamConfig(),
    "tune": TuneConfig(run=RunConfig()),
}

#: (config class, field) -> (subcommand, one value the config rejects).
INVALID = {
    ("RunConfig", "model"): ("simulate", "BERT"),
    ("RunConfig", "dataset"): ("simulate", "ImageNet"),
    ("RunConfig", "scale"): ("simulate", "nan"),
    ("RunConfig", "cluster"): ("simulate", "gn6e:-3"),
    ("RunConfig", "framework"): ("simulate", "MXNet"),
    ("RunConfig", "batch_size"): ("simulate", "0"),
    ("RunConfig", "iterations"): ("simulate", "0"),
    ("PrefetchConfig", "lookahead_depth"): ("simulate", "0"),
    ("PrefetchConfig", "hot_threshold"): ("simulate", "1.5"),
    ("PrefetchConfig", "max_inflight_bytes"): ("simulate", "nan"),
    ("PrefetchConfig", "policy"): ("simulate", "typo"),
    ("ServeConfig", "requests"): ("serve", "0"),
    ("ServeConfig", "seed"): ("serve", "-1"),
    ("ServeConfig", "rate_qps"): ("serve", "0"),
    ("ServeConfig", "cache"): ("serve", "tape"),
    ("ServeConfig", "hot_rows"): ("serve", "-1"),
    ("ServeConfig", "warm_rows"): ("serve", "-1"),
    ("ServeConfig", "max_batch_size"): ("serve", "0"),
    ("ServeConfig", "max_wait_s"): ("serve", "-1"),
    ("ServeConfig", "slo_s"): ("serve", "0"),
    ("ServeConfig", "micro_batch_rows"): ("serve", "0"),
    ("ServeConfig", "variant"): ("serve", "bert"),
    ("ServeConfig", "replicas"): ("serve", "0"),
    ("StreamConfig", "requests"): ("stream", "0"),
    ("StreamConfig", "seed"): ("stream", "-1"),
    ("StreamConfig", "rate_qps"): ("stream", "inf"),
    ("StreamConfig", "train_steps"): ("stream", "0"),
    ("StreamConfig", "train_step_s"): ("stream", "0"),
    ("StreamConfig", "train_batch_size"): ("stream", "0"),
    ("StreamConfig", "publish_interval"): ("stream", "0"),
    ("StreamConfig", "drift_ids_per_step"): ("stream", "-1"),
    ("StreamConfig", "max_chain"): ("stream", "0"),
    ("StreamConfig", "load_share"): ("stream", "1"),
    ("StreamConfig", "cache"): ("stream", "tape"),
    ("StreamConfig", "hot_rows"): ("stream", "-1"),
    ("StreamConfig", "warm_rows"): ("stream", "-1"),
    ("StreamConfig", "max_batch_size"): ("stream", "0"),
    ("StreamConfig", "max_wait_s"): ("stream", "nan"),
    ("StreamConfig", "slo_s"): ("stream", "0"),
    ("StreamConfig", "micro_batch_rows"): ("stream", "0"),
    ("StreamConfig", "min_replicas"): ("stream", "0"),
    ("StreamConfig", "max_replicas"): ("stream", "0"),
    ("StreamConfig", "variant"): ("stream", "bert"),
    ("TuneConfig", "strategy"): ("tune", "bogus"),
    ("TuneConfig", "top_k"): ("tune", "0"),
    ("TuneConfig", "wait_model"): ("tune", "psychic"),
    ("TuneConfig", "shrink_credit"): ("tune", "0"),
    ("TuneConfig", "diversity_cap"): ("tune", "0"),
    ("CostHooks", "compute"): ("replay", "0"),
    ("CostHooks", "memory"): ("replay", "0"),
    ("CostHooks", "communication"): ("replay", "0"),
    ("CostHooks", "launch"): ("replay", "0"),
    ("CostHooks", "wait_model"): ("replay", "psychic"),
}
#: Generated fields no value of their type is invalid for: any string
#: names a directory or file (a missing trace fails when loaded).
NO_INVALID_VALUE = {("StreamConfig", "snapshot_dir"),
                    ("TuneConfig", "trace_path")}


def _generated_actions():
    """(subcommand, action) for every flag generated from a config."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if action.dest == "command")
    for name, subparser in subparsers.choices.items():
        for action in subparser._actions:
            if "." in action.dest:
                yield name, action


class TestDefaults:
    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_bare_subcommand_builds_the_default_config(self, command):
        args = build_parser().parse_args([command])
        assert args.config == DEFAULTS[command]

    def test_prefetch_stays_off_unless_a_prefetch_flag_is_given(self):
        parser = build_parser()
        assert parser.parse_args(["simulate"]).config.prefetch is None
        config = parser.parse_args(
            ["simulate", "--prefetch-max-inflight-bytes", "67108864"]).config
        assert config.prefetch == PrefetchConfig(
            max_inflight_bytes=64.0 * (1 << 20))

    def test_bool_fields_take_a_negated_flag(self):
        config = build_parser().parse_args(
            ["stream", "--no-autoscale", "--no-hot-swaps"]).config
        assert not config.autoscale and not config.hot_swaps

    def test_flags_keep_the_field_unit_and_accept_prefixes(self):
        config = build_parser().parse_args(
            ["serve", "--rate", "200000", "--slo-s", "0.004",
             "--max-batch", "32"]).config
        assert (config.rate_qps, config.slo_s, config.max_batch_size) \
            == (200_000.0, 0.004, 32)

    def test_parser_builds_without_deprecation_warnings(self):
        # BooleanOptionalAction deprecates metavar (3.12) and drops it
        # (3.14); the bool check holds on every interpreter.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            actions = [action for _command, action in _generated_actions()]
        assert all(action.metavar is None for action in actions
                   if isinstance(action, argparse.BooleanOptionalAction))

    def test_help_comes_from_the_param_docstring(self):
        actions = {action.dest: action for _command, action
                   in _generated_actions()}
        assert actions["ServeConfig.rate_qps"].help \
            == "mean arrival rate in requests/second"
        assert actions["ServeConfig.micro_batch_rows"].help \
            == "Eq. 2 activation budget in requests"


class TestInvalidValues:
    def test_every_generated_field_has_a_case(self):
        generated = {tuple(action.dest.split(".")) for _command, action
                     in _generated_actions() if action.nargs != 0}
        assert generated == set(INVALID) | NO_INVALID_VALUE

    @pytest.mark.parametrize("key", sorted(INVALID))
    def test_invalid_value_is_a_usage_error_naming_the_field(
            self, key, capsys):
        leg, name = key
        command, value = INVALID[key]
        prefix = "prefetch-" if leg == "PrefetchConfig" else ""
        flag = "--" + (prefix + name).replace("_", "-")
        with pytest.raises(SystemExit) as exit_info:
            main([command, f"{flag}={value}"])
        assert exit_info.value.code == 2
        assert name in capsys.readouterr().err

    def test_serve_zero_rate_with_crashes_is_a_usage_error(self, capsys):
        # Used to raise ZeroDivisionError while generating the fault plan.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--rate-qps", "0", "--crash-rate", "1"])
        assert exit_info.value.code == 2
        assert "rate_qps" in capsys.readouterr().err

    def test_serve_non_finite_crash_rate_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--crash-rate", "nan"])
        assert exit_info.value.code == 2
        assert "crash rate" in capsys.readouterr().err

    def test_stream_non_finite_shape_is_a_usage_error(self, capsys):
        # Used to hang the arrival sampler forever.
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", "--shape", "flash", "--flash-multiplier", "nan"])
        assert exit_info.value.code == 2
        assert "multiplier" in capsys.readouterr().err

    def test_tune_missing_trace_is_a_message(self, tmp_path):
        # Used to end in a FileNotFoundError traceback.
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["tune", "--scale", "0.001", "--trace-path", missing])
        assert missing in str(exit_info.value.code)

    @pytest.mark.parametrize("command", ["ablation", "tune"])
    def test_picasso_only_commands_take_no_framework_flag(
            self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--framework", "XDL"])
        assert exit_info.value.code == 2
        assert "--framework" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "profile", "replay"])
    def test_record_tasks_is_set_by_the_command_not_a_flag(
            self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--no-record-tasks"])
        assert exit_info.value.code == 2
        assert "--no-record-tasks" in capsys.readouterr().err


def _doc_commands():
    """Every complete ``python -m repro.cli`` command line in README.md
    and EXPERIMENTS.md, continuation lines joined."""
    commands = []
    for doc in ("README.md", "EXPERIMENTS.md"):
        text = (ROOT / doc).read_text(encoding="utf-8")
        for line in re.sub(r"\\\n", " ", text).splitlines():
            line = line.strip().removeprefix("PYTHONPATH=src ")
            if line.startswith("python -m repro.cli ") \
                    and "..." not in line:
                words = shlex.split(line, comments=True)[3:]
                commands.append(pytest.param(words, id=f"{doc}:{words}"))
    return commands


@pytest.mark.parametrize("words", _doc_commands())
def test_documented_command_parses(words):
    build_parser().parse_args(words)
