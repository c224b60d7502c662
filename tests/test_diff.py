"""Tests for differential observability: trace diff, provenance
manifests and the ranked bench-snapshot comparison.

The acceptance bar from the PR issue lives here: diffing a frozen
trace against a replay whose Shuffle ops were scaled 1.3x must
attribute >= 90% of the makespan delta to the shuffle op classes.
"""

import json

import pytest

from repro.api import RunConfig, run, run_manifest
from repro.bench.snapshot import BenchSnapshot, compare_snapshots
from repro.replay import CostHooks, TraceReplayer
from repro.sim import FrozenTrace, TaskRecord
from repro.sim.resource import ResourceKind
from repro.telemetry import (
    RunManifest,
    align_records,
    build_manifest,
    config_fingerprint,
    diff_traces,
    git_describe,
    validate_chrome_trace,
)
from repro.telemetry.diff import (
    ALIGN_BY_CLASS,
    ALIGN_BY_NAME,
    SHARED_WORKER,
    op_basename,
    worker_of,
)

BASE = RunConfig(model="W&D", dataset="Product-1", scale=0.02,
                 cluster="eflops:2", batch_size=2_000, iterations=2,
                 record_tasks=True)

_SM = ResourceKind.GPU_SM.value


@pytest.fixture(scope="module")
def base_trace():
    report = run(BASE)
    return FrozenTrace(records=tuple(report.result.task_records),
                       makespan=report.result.makespan,
                       metadata={"provenance": report.result.provenance})


@pytest.fixture(scope="module")
def shuffle_scaled(base_trace):
    """Replay with every shuffle op's costs scaled 1.3x."""
    hooks = CostHooks(compute=1.3, memory=1.3, communication=1.3,
                      launch=1.3, wait_model="frozen")

    def per_record(record):
        if "shuffle" in op_basename(record.name):
            return hooks
        return None

    replayer = TraceReplayer(base_trace.records,
                             makespan=base_trace.makespan)
    result = replayer.replay(record_hooks=per_record)
    return FrozenTrace(records=tuple(result.records),
                       makespan=result.makespan)


def _record(name, start, end, kind=_SM, wait=0.0, preds=()):
    return TaskRecord(name=name, start=start, end=end, preds=preds,
                      segments=((kind, start + wait, end),))


def _tiny_dataset():
    from repro.data.spec import DatasetSpec, FieldSpec
    return DatasetSpec(name="diff", num_numeric=2, fields=tuple(
        FieldSpec(name=f"cat_{index}", vocab_size=400,
                  embedding_dim=8, zipf_exponent=1.15)
        for index in range(2)))


def _tiny_network(seed=0):
    from repro.nn.network import WdlNetwork
    return WdlNetwork(_tiny_dataset(), variant="wdl", embedding_dim=8,
                      vocab_rows=400, mlp_layers=(16,), seed=seed)


class TestIdentity:
    def test_worker_of(self):
        assert worker_of("it0/s3/dim32.0/shuffle_stitch") == "s3"
        assert worker_of("dataset/read") == SHARED_WORKER

    def test_op_basename(self):
        assert op_basename("it0/s3/dim32.0/gather") == "gather"
        assert op_basename("barrier") == "barrier"


class TestAlignment:
    def test_identical_sets_align_by_name(self):
        records = [_record("it0/s0/a", 0.0, 1.0),
                   _record("it0/s1/a", 0.0, 1.0)]
        pairs, base_only, cand_only = align_records(records, records)
        assert len(pairs) == 2
        assert all(pair.how == ALIGN_BY_NAME for pair in pairs)
        assert base_only == [] and cand_only == []

    def test_renamed_instances_align_by_class(self):
        base = [_record("it0/s0/gather", 0.0, 1.0)]
        cand = [_record("it1/s0/gather", 0.0, 1.5)]
        pairs, base_only, cand_only = align_records(base, cand)
        assert len(pairs) == 1
        assert pairs[0].how == ALIGN_BY_CLASS
        assert base_only == [] and cand_only == []

    def test_disjoint_sets_fall_to_unmatched(self):
        base = [_record("it0/s0/gather", 0.0, 1.0)]
        cand = [_record("it0/s0/scatter", 0.0, 1.0)]
        pairs, base_only, cand_only = align_records(base, cand)
        assert pairs == []
        assert [r.name for r in base_only] == ["it0/s0/gather"]
        assert [r.name for r in cand_only] == ["it0/s0/scatter"]

    def test_class_pairing_is_start_ordered(self):
        base = [_record("it0/s0/a", 0.0, 1.0),
                _record("it1/s0/a", 2.0, 3.0)]
        cand = [_record("it2/s0/a", 2.5, 3.5),
                _record("it3/s0/a", 0.5, 1.5)]
        pairs, _, _ = align_records(base, cand)
        matched = {pair.base.name: pair.candidate.name
                   for pair in pairs}
        assert matched == {"it0/s0/a": "it3/s0/a",
                           "it1/s0/a": "it2/s0/a"}


class TestTraceDiffZero:
    def test_identical_traces_diff_to_exact_zero(self, base_trace):
        diff = diff_traces(base_trace, base_trace)
        assert diff.makespan_delta == 0.0  # exact, not approx
        assert all(entry.path_delta == 0.0 for entry in diff.entries)
        assert all(entry.share == 0.0 for entry in diff.entries)
        assert all(row["delta"] == 0.0
                   for row in diff.by_worker.values())
        assert diff.alignment["class"] == 0
        assert diff.alignment["base_only"] == 0
        assert diff.alignment["candidate_only"] == 0
        assert diff.alignment["name"] == len(base_trace.records)

    def test_unperturbed_replay_diffs_to_zero(self, base_trace):
        replayed = TraceReplayer(base_trace.records,
                                 makespan=base_trace.makespan).replay()
        again = FrozenTrace(records=tuple(replayed.records),
                            makespan=replayed.makespan)
        diff = diff_traces(base_trace, again)
        assert diff.makespan_delta == 0.0

    def test_dumps_is_byte_stable(self, base_trace, shuffle_scaled):
        first = diff_traces(base_trace, shuffle_scaled).dumps()
        second = diff_traces(base_trace, shuffle_scaled).dumps()
        assert first == second
        json.loads(first)  # strict JSON


class TestShuffleAttribution:
    """The PR acceptance bar: >= 90% of the delta lands on shuffle."""

    def test_attribution_share(self, base_trace, shuffle_scaled):
        diff = diff_traces(base_trace, shuffle_scaled)
        assert diff.makespan_delta > 0.0
        assert diff.explained_share("shuffle") >= 0.9

    def test_shares_partition_the_delta(self, base_trace,
                                        shuffle_scaled):
        diff = diff_traces(base_trace, shuffle_scaled)
        assert sum(entry.share for entry in diff.entries) \
            == pytest.approx(1.0)
        assert sum(row["share"] for row in diff.by_worker.values()) \
            == pytest.approx(1.0)

    def test_top_entry_is_a_shuffle_op(self, base_trace,
                                       shuffle_scaled):
        diff = diff_traces(base_trace, shuffle_scaled)
        assert "shuffle" in diff.entries[0].label

    def test_format_mentions_the_culprit(self, base_trace,
                                         shuffle_scaled):
        text = diff_traces(base_trace, shuffle_scaled).format()
        assert "shuffle" in text
        assert "ranked attribution" in text

    def test_overlay_validates(self, base_trace, shuffle_scaled):
        overlay = diff_traces(base_trace, shuffle_scaled).overlay()
        validate_chrome_trace(overlay)
        pids = {event["pid"] for event in overlay["traceEvents"]}
        assert pids == {0, 1, 2}


class TestProvenance:
    def test_manifest_round_trip(self):
        manifest = build_manifest(kind="run",
                                  config={"model": "W&D", "scale": 1.0},
                                  knobs={"interleaving": True})
        payload = manifest.as_dict()
        restored = RunManifest.from_dict(payload)
        assert restored.as_dict() == payload

    def test_schema_mismatch_raises(self):
        payload = build_manifest().as_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError):
            RunManifest.from_dict(payload)

    def test_fingerprint_tracks_config(self):
        one = config_fingerprint({"a": 1})
        assert one == config_fingerprint({"a": 1})
        assert one != config_fingerprint({"a": 2})

    def test_git_describe_is_cached_and_stable(self):
        assert git_describe() == git_describe()
        assert isinstance(git_describe(), str)

    def test_run_stamps_result_provenance(self, base_trace):
        prov = base_trace.metadata["provenance"]
        assert prov["kind"] == "run"
        assert prov["config"]["model"] == "W&D"
        assert prov["config_fingerprint"] \
            == config_fingerprint(prov["config"])

    def test_run_manifest_helper(self):
        payload = run_manifest(BASE, "PICASSO", kind="trace")
        assert payload["kind"] == "trace"
        assert payload["extra"]["report_name"] == "PICASSO"

    def test_diff_carries_provenance(self, base_trace, shuffle_scaled):
        diff = diff_traces(base_trace, shuffle_scaled)
        assert diff.base_provenance["kind"] == "run"
        assert diff.candidate_provenance == {}


class TestOnlineProvenanceRoundTrip:
    def _network(self):
        return _tiny_network()

    def test_delta_snapshot_round_trips_provenance(self, tmp_path):
        from repro.online.delta import (
            capture_delta,
            load_delta,
            save_delta,
        )
        network = self._network()
        manifest = build_manifest(kind="stream",
                                  config={"seed": 0}).as_dict()
        dirty = {name: [0, 1] for name in network.embeddings}
        delta = capture_delta(network, dirty, version=1,
                              base_version=0, step=10,
                              provenance=manifest)
        path = save_delta(delta, tmp_path / "delta")
        restored = load_delta(path)
        assert restored.provenance == manifest

    def test_registry_round_trips_provenance(self, tmp_path):
        from repro.online.registry import SnapshotRegistry
        network = self._network()
        manifest = build_manifest(kind="stream",
                                  config={"seed": 0}).as_dict()
        registry = SnapshotRegistry(tmp_path)
        entry = registry.publish(network, step=0, provenance=manifest)
        assert entry.provenance == manifest
        reloaded = SnapshotRegistry(tmp_path)
        assert reloaded.latest().provenance == manifest


class TestBenchDiff:
    def _snapshots(self):
        baseline = BenchSnapshot(
            name="demo", config={"seed": 0},
            metrics={"ips": 100.0, "p99_ms": 10.0, "count": 5},
            tolerances={"ips": 0.05, "p99_ms": 0.05, "count": 0.0},
            provenance={"git": "abc", "config_fingerprint": "f00"})
        candidate = BenchSnapshot(
            name="demo", config={"seed": 0},
            metrics={"ips": 80.0, "p99_ms": 10.2, "fresh": 1.0},
            tolerances={})
        return baseline, candidate

    def test_ranking_most_severe_first(self):
        baseline, candidate = self._snapshots()
        report = compare_snapshots(baseline, candidate)
        assert [gate.metric for gate in report.gates][:2] \
            == ["count", "ips"]
        assert report.gates[0].severity == float("inf")  # missing metric
        assert report.gates[0].status == "missing"
        assert report.gates[1].severity == pytest.approx(4.0)  # 20% / 5%

    def test_regressed_and_new(self):
        baseline, candidate = self._snapshots()
        report = compare_snapshots(baseline, candidate)
        assert {gate.metric for gate in report.failures} \
            == {"count", "ips"}
        new = [gate for gate in report.gates if gate.status == "new"]
        assert [gate.metric for gate in new] == ["fresh"]
        assert new[0].severity == 0.0

    def test_as_dict_is_strict_json(self):
        baseline, candidate = self._snapshots()
        report = compare_snapshots(baseline, candidate)
        text = json.dumps(report.as_dict(), allow_nan=False)
        json.loads(text)

    def test_format_carries_provenance(self):
        baseline, candidate = self._snapshots()
        text = compare_snapshots(baseline, candidate).format()
        assert "git abc" in text
        assert "metric(s) over tolerance" in text

    def test_bench_snapshot_provenance_round_trip(self):
        baseline, _ = self._snapshots()
        restored = BenchSnapshot.from_dict(baseline.as_dict())
        assert restored.provenance == baseline.provenance


class TestValidatorStrengthening:
    """S1: the Chrome-trace validator's new invariants reject bad
    payloads (good payloads are covered by the overlay/dump tests)."""

    def _payload(self, events):
        metadata = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "p"}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "t"}},
        ]
        return {"traceEvents": metadata + events}

    def test_counter_ts_regression_rejected(self):
        events = [
            {"name": "qps", "ph": "C", "ts": 2.0, "pid": 0, "tid": 0,
             "args": {"value": 1.0}},
            {"name": "qps", "ph": "C", "ts": 1.0, "pid": 0, "tid": 0,
             "args": {"value": 2.0}},
        ]
        with pytest.raises(ValueError, match="ts"):
            validate_chrome_trace(self._payload(events))

    def test_cumulative_counter_decrease_rejected(self):
        events = [
            {"name": "cumulative work", "ph": "C", "ts": 1.0,
             "pid": 0, "tid": 0, "args": {"value": 2.0}},
            {"name": "cumulative work", "ph": "C", "ts": 2.0,
             "pid": 0, "tid": 0, "args": {"value": 1.0}},
        ]
        with pytest.raises(ValueError, match="cumulative"):
            validate_chrome_trace(self._payload(events))

    def test_missing_process_name_rejected(self):
        payload = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "t"}},
            {"name": "op", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 0, "tid": 0},
        ]}
        with pytest.raises(ValueError, match="process_name"):
            validate_chrome_trace(payload)

    def test_missing_thread_name_rejected(self):
        payload = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "p"}},
            {"name": "op", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 0, "tid": 7},
        ]}
        with pytest.raises(ValueError, match="thread_name"):
            validate_chrome_trace(payload)
