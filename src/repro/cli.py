"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``list`` — models, datasets, frameworks, experiments.
* ``simulate`` — run one workload under a framework and print metrics.
* ``ablation`` — the Tab. IV toggles for one model.
* ``train`` — real numpy training with AUC (Tab. III path).
* ``experiment`` — run one table/figure harness by id and check its
  paper claims (exit 1 if one fails).
* ``gantt`` — ASCII utilization timeline of a simulated run.
* ``serve`` — online inference serving simulation with SLO metrics.
* ``stream`` — the continuous loop: streaming training publishes
  delta snapshots that hot-swap into serving under live traffic,
  with SLO-burn-rate autoscaling.
* ``profile`` — run one workload with telemetry on, write a
  Chrome-trace JSON (loads in Perfetto) and print the critical path,
  run-health monitor verdicts and each memo's hit/miss counts.
* ``replay`` — record (or load) a frozen task trace and re-derive its
  timeline under perturbed per-class cost scales, without re-running
  the engine.
* ``tune`` — trace-driven what-if auto-tuning: search PICASSO's knob
  space by replay prediction, validate the top candidates with real
  runs, report the winner plus prediction fidelity.
* ``bench`` — run the regression benchmark suite (``bench run``) and
  gate candidate snapshots against baselines (``bench compare``);
  gate failures print the ranked metric-attribution table.
* ``diff`` — differential observability: align two frozen traces and
  attribute the makespan delta per op class / worker / resource
  (text, JSON, Chrome overlay), or rank bench-snapshot deltas
  against committed baselines with ``--bench``.
* ``plan-shards`` — build a skew-aware embedding shard placement,
  price seeded traffic under hash vs planned ownership, and
  optionally write the lossless plan JSON.

Workload commands are thin wrappers over the :mod:`repro.api` facade.
Their flags are generated from the config dataclasses' fields
(:func:`add_config_flags`), and the config is built while parsing, so
a value the config rejects is a usage error naming the field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from repro import api, memo
from repro.api import RunConfig, ServeConfig, StreamConfig, TuneConfig
from repro.faults import FaultPlan
from repro.bench import (
    BENCHES,
    canonical_json,
    compare_snapshots,
    load_snapshot,
    pair_snapshots,
    run_benches,
    snapshot_filename,
    write_snapshot,
)
from repro.core import PicassoConfig
from repro.data import ALL_DATASETS, BoundedZipf
from repro.data.spec import FieldSpec
from repro.embedding.placement import (
    PlannerConfig,
    ShardPlanner,
    compare_policies,
)
from repro.experiments import runner as experiment_runner
from repro.experiments.common import format_table, mini_criteo
from repro.models import MODEL_BUILDERS
from repro.nn.network import VARIANTS
from repro.prefetch import PrefetchConfig
from repro.replay import CostHooks, TraceReplayer
from repro.serving import DiurnalShape, FlashCrowdShape
from repro.sim import FrozenTrace
from repro.sim.export import ascii_gantt
from repro.telemetry import (
    class_deltas,
    diff_traces,
    format_critical_path,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.training import train_and_evaluate


#: Config field annotations (read as strings: every config module uses
#: postponed annotations) that :func:`add_config_flags` turns into flags.
_SCALARS = {"int": int, "float": float, "str": str, "bool": bool}

#: Fields the commands set, never flags: ``profile``/``replay``/``tune``
#: force ``record_tasks`` on and the others never read task records.
_COMMAND_SET = frozenset({"record_tasks"})


def _param_help(cls) -> dict:
    """The first sentence of each ``:param name:`` entry in ``cls``'s
    docstring, with its reST markup dropped: argparse help text."""
    doc = " ".join((cls.__doc__ or "").split())
    helps = {}
    for name, text in re.findall(r":param (\w+): (.*?)(?= :param |$)", doc):
        text = re.sub(r":\w+:`~?(?:[\w.]*\.)?([^`]*)`", r"\1", text)
        sentence = re.split(r"(?<=\.) (?=[A-Z])", text.replace("``", ""))[0]
        helps[name] = sentence.rstrip(".").replace("%", "%%")
    return helps


def add_config_flags(parser, cls, prefix: str = "",
                     skip: tuple = ()) -> None:
    """Add a ``--<prefix><field>`` flag for every scalar field of config
    dataclass ``cls`` (``int``/``float``/``str``/``bool``, optionally
    ``| None``) not in ``skip`` or :data:`_COMMAND_SET`, in the field's
    own unit; a ``bool`` field becomes ``--x/--no-x``.  Unset flags stay
    out of the namespace, so only the config declares defaults;
    :func:`_given` collects the set ones."""
    helps = _param_help(cls)
    for spec in dataclasses.fields(cls):
        kind = _SCALARS.get(str(spec.type).split(" | ")[0])
        if kind is None or spec.name in _COMMAND_SET or spec.name in skip:
            continue
        options = ({"action": argparse.BooleanOptionalAction}
                   if kind is bool
                   else {"type": kind, "metavar": spec.name.upper()})
        parser.add_argument(
            "--" + (prefix + spec.name).replace("_", "-"),
            dest=f"{cls.__name__}.{spec.name}", default=argparse.SUPPRESS,
            help=helps.get(spec.name), **options)


def _given(args, cls) -> dict:
    """Pop the flags :func:`add_config_flags` added for ``cls`` that
    were set, keyed by field name."""
    prefix = cls.__name__ + "."
    return {key[len(prefix):]: vars(args).pop(key)
            for key in list(vars(args)) if key.startswith(prefix)}


def _from_flags(cls, args, **nested):
    """``cls.from_dict`` over its generated flags and the
    ``--prefetch-*`` group: ``prefetch`` stays ``None`` (off) unless
    one of those flags was given."""
    return cls.from_dict({**_given(args, cls),
                          "prefetch": _given(args, PrefetchConfig) or None,
                          **nested})


class _Parser(argparse.ArgumentParser):
    """Builds the subcommand's configs inside ``parse_args`` through its
    ``build`` default, so a value a config rejects is a usage error
    (exit 2) with the config's own message naming the field."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        build = vars(namespace).pop("build", None)
        if build is not None:
            try:
                vars(namespace).update(build(namespace))
            except ValueError as error:
                self.error(str(error))
        return namespace, extras


def _facade(call, *args, **kwargs):
    """Call into the facade, turning an error raised while running (the
    configs were already checked at parse time) into a CLI exit."""
    try:
        return call(*args, **kwargs)
    except (OSError, ValueError) as error:
        raise SystemExit(str(error))


def _report_rows(report) -> list:
    return [{
        "ips": f"{report.ips:,.0f}",
        "ms/iter": f"{report.seconds_per_iteration * 1000:.1f}",
        "sm_util": f"{report.sm_utilization:.0%}",
        "pcie_GBps": f"{report.pcie_gbps:.2f}",
        "net_Gbps": f"{report.net_gbps:.2f}",
        "ops": report.op_count,
        "micro_ops": f"{report.micro_ops:,}",
    }]


def cmd_list(_args) -> int:
    print("models:     " + ", ".join(sorted(MODEL_BUILDERS)))
    print("datasets:   " + ", ".join(ALL_DATASETS))
    print("frameworks: " + ", ".join(api.frameworks()))
    print("experiments:")
    for title, _run, _claims in experiment_runner.EXPERIMENTS:
        print(f"  - {title}")
    return 0


def cmd_simulate(args) -> int:
    config = args.config
    report = _facade(api.run, config)
    cluster = config.resolved_cluster()
    print(f"{config.framework} / {report.name.split('/', 1)[-1]} "
          f"on {config.dataset} ({cluster.name} x{cluster.num_nodes})")
    print(format_table(_report_rows(report), list(_report_rows(report)[0])))
    return 0


def cmd_ablation(args) -> int:
    rows = []
    variants = {
        "PICASSO": PicassoConfig(),
        "w/o packing": PicassoConfig().without("packing"),
        "w/o interleaving": PicassoConfig().without("interleaving"),
        "w/o caching": PicassoConfig().without("caching"),
    }
    model = None
    for name, picasso in variants.items():
        config = args.config.with_overrides(picasso=picasso)
        if model is None:
            model = config.build_model()
        report = api.run(config, model=model)
        rows.append({"variant": name, "ips": f"{report.ips:,.0f}",
                     "sm_util": f"{report.sm_utilization:.0%}"})
    print(format_table(rows, ["variant", "ips", "sm_util"]))
    return 0


def cmd_train(args) -> int:
    dataset = mini_criteo()
    result = train_and_evaluate(dataset, args.variant, mode=args.mode,
                                steps=args.steps,
                                batch_size=args.batch,
                                noise_scale=args.noise)
    print(f"{args.variant} ({args.mode}): AUC={result.auc:.4f} "
          f"logloss={result.logloss:.4f} "
          f"loss {result.losses[0]:.4f} -> {result.final_loss:.4f}")
    return 0


def cmd_experiment(args) -> int:
    for title, run, claims in experiment_runner.EXPERIMENTS:
        if args.name.lower() in title.lower():
            checks = experiment_runner.run_experiment(title, run, claims)
            return 0 if all(check.passed for check in checks) else 1
    raise SystemExit(f"no experiment matches {args.name!r}; see `list`")


def _serve_from_flags(args) -> dict:
    """The ``serve`` config; ``--crash-rate`` adds a fault plan of
    replica crashes over the validated trace's expected span."""
    config = _from_flags(ServeConfig, args)
    if args.crash_rate:
        config = config.with_overrides(fault_plan=FaultPlan.generate(
            seed=args.fault_seed,
            duration_s=config.requests / config.rate_qps,
            crash_rate=args.crash_rate, workers=config.replicas))
    return {"config": config}


def cmd_serve(args) -> int:
    config = args.config
    report = api.serve(config)
    print(f"serving {config.requests} requests @ "
          f"{config.rate_qps:,.0f} qps "
          f"(cache={config.cache}, slo={round(config.slo_s * 1e3, 9)}ms, "
          f"seed={config.seed})")
    print(format_table([report.row()], list(report.row())))
    stages = report.stage_seconds
    total = sum(stages.values()) or 1.0
    print("stage breakdown: " + "  ".join(
        f"{name}={seconds / total:.0%}"
        for name, seconds in stages.items()))
    if report.degraded is not None:
        degraded = report.degraded
        print(f"degraded mode: {degraded['replica_crashes']} replica "
              f"crash(es), {degraded['degraded_seconds']:.3f}s degraded, "
              f"min live {degraded['min_live_replicas']}/"
              f"{degraded['replicas']}, "
              f"{degraded['tightened_shed']} request(s) shed by "
              "tightened admission")
    return 0


def _stream_shape(args):
    """Build the optional rate shape from the ``stream`` flags."""
    if args.shape == "none":
        return None
    if args.shape == "diurnal":
        return DiurnalShape(period_s=args.shape_period_s,
                            amplitude=args.shape_amplitude)
    return FlashCrowdShape(start_s=args.flash_start_s,
                           duration_s=args.flash_duration_s,
                           multiplier=args.flash_multiplier)


def cmd_stream(args) -> int:
    config = args.config
    report = api.stream(config)
    print(f"streaming {config.train_steps}-step trainer "
          f"(publish every {config.publish_interval}) against "
          f"{config.requests} requests @ {config.rate_qps:,.0f} qps "
          f"(seed={config.seed})")
    print(format_table([report.row()], list(report.row())))
    print(f"publishes={report.publishes} swaps={report.swaps} "
          f"(skipped {report.skipped_versions} stale version(s)), "
          f"swap pause p99 {report.swap_pause_p99_ms:.3f} ms, "
          f"{report.swap_attributed_shed} swap-attributed shed(s)")
    if report.delta_compression > 0:
        print(f"snapshots: full {report.full_snapshot_bytes:,} B, "
              f"delta mean {report.delta_snapshot_bytes_mean:,.0f} B "
              f"({report.delta_compression:.1f}x smaller)")
    scaling = report.controls.get("ReplicaAutoscaler")
    if scaling is not None:
        print(f"autoscaler: {scaling['scale_ups']} up / "
              f"{scaling['scale_downs']} down, peak "
              f"{scaling['max_replicas_seen']} replica(s)")
    return 0


def cmd_gantt(args) -> int:
    report = _facade(api.run, args.config)
    print(ascii_gantt(report.result, width=args.width))
    return 0


def cmd_profile(args) -> int:
    profiled = _facade(api.profile, args.config, top_k=args.top)
    validate_chrome_trace(profiled.trace)
    path = write_chrome_trace(args.output, profiled.trace)
    report = profiled.report
    print(f"{args.config.framework} / {report.name.split('/', 1)[-1]}: "
          f"{report.ips:,.0f} ips, "
          f"{report.seconds_per_iteration * 1e3:.1f} ms/iter, "
          f"{len(report.result.task_records)} tasks")
    result = report.result
    peaks = " ".join(f"{kind}={count}"
                     for kind, count in result.peak_occupancy.items())
    print(f"engine: {result.event_count:,} events, "
          f"{result.lane_rebuilds:,} lane rebuilds, "
          f"peak occupancy {peaks}, "
          f"{result.swept_slots / max(result.event_count, 1):.1f} "
          "swept slots/event")
    last = f"it{report.iterations - 1}/"  # a copy of the stamped step
    records = result.task_records
    stream = any(r.tags.get("layer") == "prefetch" for r in records)
    print(f"compile: {sum(r.name.startswith(last) for r in records):,} "
          f"tasks/iteration x {report.iterations} iteration(s), "
          + ("iteration 0 built separately (prefetch stream on)" if stream
             else "one iteration built and stamped"))
    print(format_critical_path(profiled.critical_path))
    for name, monitor in sorted(profiled.monitors.items()):
        verdict = "healthy" if monitor.healthy else "UNHEALTHY"
        if name == "pulse":
            detail = (f"{monitor.summary['num_phases']} phases "
                      f"({monitor.summary['alternations']} mem<->compute "
                      "alternations), "
                      f"{monitor.summary['idle_fraction']:.1%} idle")
        elif name == "overlap":
            detail = ("comm/compute overlap "
                      f"{monitor.summary['overlap_ratio']:.1%} "
                      f"({monitor.summary['exposed_seconds'] * 1e3:.1f} ms "
                      "exposed)")
        else:
            detail = ""
        print(f"monitor {name}: {verdict} — {detail}")
        for alert in monitor.alerts:
            print(f"  [{alert.severity}] t={alert.time_s:.3f}s "
                  f"{alert.message}")
    for name, counts in memo.stats().items():
        print(f"memo {name}: {counts['hits']}/{counts['misses']} "
              f"hits/misses, {counts['size']}/{counts['maxsize']} entries")
    print(f"chrome trace: {path} "
          "(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _load_or_record_trace(args) -> FrozenTrace:
    """The frozen trace ``replay``/``tune`` operate on."""
    if args.trace:
        try:
            return FrozenTrace.load(args.trace)
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot load trace {args.trace}: {error}")
    config = args.config.with_overrides(record_tasks=True)
    report = _facade(api.run, config)
    return FrozenTrace(records=tuple(report.result.task_records),
                       makespan=report.result.makespan,
                       metadata={"workload": config.as_dict(),
                                 "report_name": report.name,
                                 "provenance": api.run_manifest(
                                     config, report.name,
                                     kind="trace")})


def cmd_replay(args) -> int:
    trace = _load_or_record_trace(args)
    if args.save:
        path = trace.save(args.save)
        print(f"trace saved to {path} ({len(trace)} tasks)")
    try:
        replayer = TraceReplayer.from_trace(trace)
    except ValueError as error:
        raise SystemExit(str(error))
    hooks = args.hooks
    base = replayer.replay()
    replayed = replayer.replay(hooks)
    print(f"replayed {len(trace)} tasks under scales "
          f"compute={hooks.compute:g} memory={hooks.memory:g} "
          f"communication={hooks.communication:g} "
          f"launch={hooks.launch:g} (waits: {hooks.wait_model})")
    print(f"makespan: {base.makespan * 1e3:.3f} ms -> "
          f"{replayed.makespan * 1e3:.3f} ms "
          f"({replayed.makespan_ratio:.3f}x)")
    deltas = class_deltas(base.critical_path(),
                          replayed.critical_path())
    rows = [{"class": name,
             "delta_ms": f"{seconds * 1e3:+.3f}"}
            for name, seconds in sorted(deltas.items())
            if name != "makespan"]
    rows.append({"class": "makespan",
                 "delta_ms": f"{deltas['makespan'] * 1e3:+.3f}"})
    print(format_table(rows, ["class", "delta_ms"]))
    return 0


def cmd_tune(args) -> int:
    config = args.config
    result = _facade(api.tune, config)
    base = config.run
    cluster = base.resolved_cluster()
    print(f"tuning PICASSO/{base.model} on {base.dataset} "
          f"({cluster.name} x{cluster.num_nodes}) via {config.strategy}: "
          f"{result.candidates_evaluated} candidates, "
          f"{len(result.validations)} validated")
    rows = [{
        "assignment": ", ".join(
            f"{key}={value:g}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in sorted(entry.assignment.items()))
        or "(baseline)",
        "predicted_ips": f"{entry.predicted_ips:,.0f}",
        "measured_ips": f"{entry.measured_ips:,.0f}",
        "error": f"{entry.error:+.1%}",
    } for entry in result.validations]
    print(format_table(rows, ["assignment", "predicted_ips",
                              "measured_ips", "error"]))
    if result.improved:
        assignment = ", ".join(
            f"{key}={value:g}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in sorted(result.best_assignment.items()))
        print(f"winner: {assignment} — {result.best_ips:,.0f} ips "
              f"({result.gain:+.1%} vs baseline "
              f"{result.base_ips:,.0f}), prediction error "
              f"{result.fidelity_error:+.1%}")
    else:
        print(f"no validated candidate beat the baseline "
              f"({result.base_ips:,.0f} ips); keeping it")
    return 0


def cmd_bench_run(args) -> int:
    out_dir = args.baseline_dir if args.update_baseline else args.out
    names = args.only.split(",") if args.only else None
    try:
        snapshots = run_benches(names)
    except ValueError as error:
        raise SystemExit(str(error))
    for snapshot in snapshots:
        path = write_snapshot(snapshot, out_dir)
        print(f"bench {snapshot.name}: wrote {path} "
              f"({len(snapshot.metrics)} metrics, "
              f"fingerprint {snapshot.fingerprint})")
    if args.update_baseline:
        print(f"baselines updated in {args.baseline_dir}")
    return 0


def cmd_bench_compare(args) -> int:
    names = args.only.split(",") if args.only else BENCHES
    failures = 0
    for name, baseline_path, candidate_path in pair_snapshots(
            args.baseline, args.candidate, names):
        if baseline_path is None:
            print(f"bench {name}: no baseline in {args.baseline} "
                  "(skipping; run with --update-baseline to create)")
            continue
        if candidate_path is None:
            print(f"bench {name}: FAIL — candidate snapshot missing "
                  f"in {args.candidate}")
            failures += 1
            continue
        try:
            report = compare_snapshots(load_snapshot(baseline_path),
                                       load_snapshot(candidate_path))
        except ValueError as error:
            print(f"bench {name}: FAIL — {error}")
            failures += 1
            continue
        print(report.format())
        if not report.passed:
            failures += 1
    if failures:
        print(f"{failures} bench gate(s) FAILED")
        return 1
    print("all bench gates passed")
    return 0


def cmd_diff(args) -> int:
    if args.bench:
        base_dir = args.base or "benchmarks/baselines"
        candidate_dir = args.candidate or "bench_out"
        pairs = pair_snapshots(base_dir, candidate_dir)
        if not pairs:
            raise SystemExit(
                f"no BENCH_*.json snapshots under {base_dir} "
                f"or {candidate_dir}")
        try:
            reports = [compare_snapshots(load_snapshot(base),
                                         load_snapshot(candidate))
                       for _name, base, candidate in pairs
                       if base and candidate]
        except ValueError as error:
            raise SystemExit(str(error))
        base_only = [snapshot_filename(name)
                     for name, _base, candidate in pairs if not candidate]
        candidate_only = [snapshot_filename(name)
                          for name, base, _candidate in pairs if not base]
        for report in reports:
            print(report.format(args.top))
        for name in base_only:
            print(f"baseline-only snapshot (no candidate): {name}")
        for name in candidate_only:
            print(f"candidate-only snapshot (no baseline): {name}")
        if args.output:
            payload = {"mode": "bench",
                       "diffs": [report.as_dict() for report in reports],
                       "base_only": base_only,
                       "candidate_only": candidate_only}
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(payload))
            print(f"bench diff JSON written to {args.output}")
        return 0

    if not args.base or not args.candidate:
        raise SystemExit("diff needs BASE and CANDIDATE trace files "
                         "(or --bench for snapshot directories)")
    try:
        base = FrozenTrace.load(args.base)
        candidate = FrozenTrace.load(args.candidate)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load trace: {error}")
    diff = diff_traces(base, candidate, top_k=args.top)
    print(diff.format(args.top))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(diff.dumps())
        print(f"diff JSON written to {args.output}")
    if args.overlay:
        payload = diff.overlay()
        validate_chrome_trace(payload)
        path = write_chrome_trace(args.overlay, payload)
        print(f"chrome overlay written to {path} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def cmd_plan_shards(args) -> int:
    specs = [FieldSpec(name=f"f{index}", vocab_size=args.vocab,
                       embedding_dim=args.dim, zipf_exponent=args.skew)
             for index in range(args.fields)]
    config = PlannerConfig(
        partitions_per_worker=args.partitions_per_worker,
        hot_candidates=args.hot_candidates,
        replicate_threshold=args.replicate_threshold)
    planner = ShardPlanner(args.workers, config)
    profiles = planner.profiles_for_fields(specs, args.batch)
    sampler = BoundedZipf(vocab_size=args.vocab, exponent=args.skew)
    rng = np.random.default_rng(args.seed)
    batches = {
        spec.name: [sampler.sample(args.batch, rng)
                    for _worker in range(args.workers)]
        for spec in specs
    }
    result = compare_policies(profiles, batches, args.workers, config)
    print(f"workload: {args.fields} fields x vocab {args.vocab} "
          f"(Zipf {args.skew:g}), {args.workers} workers, "
          f"{args.batch} IDs/worker/step")
    for policy in ("hash", "planned"):
        plan = result["plans"][policy]
        load = result[policy]
        summary = plan.summary()
        print(f"{policy:>8}: measured max/mean "
              f"{load.max_mean_ratio:.3f} "
              f"(max {load.max_bytes:,.0f} B/step), predicted "
              f"{summary['predicted_ratio']:.3f}, replicated "
              f"{summary['replicated_rows']}, dedicated "
              f"{summary['dedicated_rows']}")
    hash_load, planned_load = result["hash"], result["planned"]
    cut = 1.0 - planned_load.max_mean_ratio / hash_load.max_mean_ratio
    print("planned placement cuts max/mean exchange ratio by "
          f"{cut:.1%} (max bytes by "
          f"{1.0 - planned_load.max_bytes / hash_load.max_bytes:.1%})")
    if args.output:
        plan = result["plans"][args.policy]
        with open(args.output, "w") as handle:
            json.dump(plan.as_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{args.policy} plan written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = _Parser(prog="repro",
                     description="PICASSO reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list models/datasets/experiments") \
        .set_defaults(func=cmd_list)

    def leg(name, func, build, *configs, skip=(), **kwargs):
        """A subcommand with flags generated from ``configs`` (less
        ``skip``) and ``PrefetchConfig`` (as ``--prefetch-*``); ``build``
        maps the parsed flags to the attributes the command reads."""
        leg_parser = sub.add_parser(name, **kwargs)
        for cls in configs:
            add_config_flags(leg_parser, cls, skip=skip)
        add_config_flags(leg_parser, PrefetchConfig, prefix="prefetch-")
        leg_parser.set_defaults(func=func, build=build)
        return leg_parser

    def run_only(args):
        return {"config": _from_flags(RunConfig, args)}

    leg("simulate", cmd_simulate, run_only, RunConfig,
        help="simulate one workload")
    leg("ablation", cmd_ablation, run_only, RunConfig,
        skip=("framework",), help="Tab. IV toggles")

    train = sub.add_parser("train", help="real training with AUC")
    train.add_argument("--variant", default="dlrm", choices=VARIANTS)
    train.add_argument("--mode", default="sync",
                       choices=["sync", "async-ps"])
    train.add_argument("--steps", type=int, default=100)
    train.add_argument("--batch", type=int, default=1024)
    train.add_argument("--noise", type=float, default=0.6)
    train.set_defaults(func=cmd_train)

    experiment = sub.add_parser("experiment",
                                help="run one table/figure harness and check "
                                     "its claims")
    experiment.add_argument("name", help="substring of the experiment id")
    experiment.set_defaults(func=cmd_experiment)

    serve = leg("serve", cmd_serve, _serve_from_flags, ServeConfig,
                help="online serving simulation")
    serve.add_argument("--crash-rate", type=float, default=0.0,
                       help="replica crashes per second (0 = none); "
                            "losses degrade admission, not uptime")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the generated fault plan")

    stream = leg(
        "stream", cmd_stream,
        lambda args: {"config": _from_flags(StreamConfig, args,
                                            shape=_stream_shape(args))},
        StreamConfig,
        help="continuous loop: stream-train, publish deltas, hot-swap")
    stream.add_argument("--shape", default="none",
                        choices=["none", "diurnal", "flash"],
                        help="rate shape over the trace")
    stream.add_argument("--shape-period-s", type=float, default=0.2,
                        help="diurnal cycle length (modeled seconds)")
    stream.add_argument("--shape-amplitude", type=float, default=0.5)
    stream.add_argument("--flash-start-s", type=float, default=0.05)
    stream.add_argument("--flash-duration-s", type=float, default=0.05)
    stream.add_argument("--flash-multiplier", type=float, default=3.0)

    gantt = leg("gantt", cmd_gantt, run_only, RunConfig,
                help="ASCII utilization timeline")
    gantt.add_argument("--width", type=int, default=72)

    prof = leg("profile", cmd_profile, run_only, RunConfig,
               help="trace one workload: Chrome-trace JSON + critical "
                    "path")
    prof.add_argument("--output", default="repro_trace.json",
                      help="Chrome-trace JSON destination")
    prof.add_argument("--top", type=int, default=10,
                      help="entries in the critical-path ranking")

    replay = leg(
        "replay", cmd_replay,
        lambda args: {"config": _from_flags(RunConfig, args),
                      "hooks": CostHooks(**_given(args, CostHooks))},
        RunConfig, CostHooks,
        help="what-if replay of a frozen task trace under "
             "perturbed cost scales")
    replay.add_argument("--trace",
                        help="replay a saved trace JSON instead of "
                             "recording a fresh run")
    replay.add_argument("--save",
                        help="save the recorded trace JSON here")

    leg("tune", cmd_tune,
        lambda args: {"config": TuneConfig.from_dict(
            {**_given(args, TuneConfig),
             "run": _from_flags(RunConfig, args)})},
        RunConfig, TuneConfig, skip=("framework",),
        help="trace-driven auto-tuning of PICASSO knobs with "
             "real-run validation")

    bench = sub.add_parser(
        "bench",
        help="regression-gated benchmark snapshots (BENCH_*.json)")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run the suite and write BENCH_<name>.json files")
    bench_run.add_argument("--out", default="bench_out",
                           help="snapshot output directory")
    bench_run.add_argument("--only",
                           help="comma-separated bench names "
                                f"(default: all of {list(BENCHES)})")
    bench_run.add_argument("--update-baseline", action="store_true",
                           help="write snapshots to the baseline "
                                "directory instead of --out")
    bench_run.add_argument("--baseline-dir",
                           default="benchmarks/baselines",
                           help="committed baseline directory")
    bench_run.set_defaults(func=cmd_bench_run)

    bench_compare = bench_sub.add_parser(
        "compare",
        help="gate candidate snapshots against baselines "
             "(exit 1 on violation)")
    bench_compare.add_argument("--baseline",
                               default="benchmarks/baselines",
                               help="baseline snapshot directory")
    bench_compare.add_argument("--candidate", default="bench_out",
                               help="candidate snapshot directory")
    bench_compare.add_argument("--only",
                               help="comma-separated bench names")
    bench_compare.set_defaults(func=cmd_bench_compare)

    diff = sub.add_parser(
        "diff",
        help="differential observability: attribute a makespan or "
             "bench delta (trace-vs-trace or bench-vs-baseline)")
    diff.add_argument("base", nargs="?",
                      help="base frozen-trace JSON (or baseline "
                           "snapshot dir with --bench; default "
                           "benchmarks/baselines)")
    diff.add_argument("candidate", nargs="?",
                      help="candidate frozen-trace JSON (or candidate "
                           "snapshot dir with --bench; default "
                           "bench_out)")
    diff.add_argument("--bench", action="store_true",
                      help="diff BENCH_*.json snapshot directories "
                           "instead of traces")
    diff.add_argument("--top", type=int, default=10,
                      help="rows in the ranked attribution table")
    diff.add_argument("--output",
                      help="write the diff report as canonical JSON")
    diff.add_argument("--overlay",
                      help="write a Chrome-trace overlay (base and "
                           "candidate as separate processes; trace "
                           "mode only)")
    diff.set_defaults(func=cmd_diff)

    shards = sub.add_parser(
        "plan-shards",
        help="skew-aware shard placement: hash vs planned exchange")
    shards.add_argument("--workers", type=int, default=8)
    shards.add_argument("--fields", type=int, default=4,
                        help="number of embedding fields")
    shards.add_argument("--vocab", type=int, default=50_000,
                        help="vocabulary size per field")
    shards.add_argument("--dim", type=int, default=16,
                        help="embedding dimension")
    shards.add_argument("--skew", type=float, default=1.2,
                        help="bounded-Zipf exponent of the ID stream")
    shards.add_argument("--batch", type=int, default=4_096,
                        help="IDs per worker per step")
    shards.add_argument("--seed", type=int, default=0,
                        help="seed for the measured traffic")
    shards.add_argument("--partitions-per-worker", type=int, default=8)
    shards.add_argument("--hot-candidates", type=int, default=512)
    shards.add_argument("--replicate-threshold", type=float,
                        default=0.5)
    shards.add_argument("--policy", default="planned",
                        choices=["hash", "planned"],
                        help="which plan --output writes")
    shards.add_argument("--output",
                        help="write the plan as lossless JSON "
                             "(PlacementPlan.as_dict)")
    shards.set_defaults(func=cmd_plan_shards)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
