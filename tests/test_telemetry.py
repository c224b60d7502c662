"""Tests for the telemetry layer: spans, metrics, traces, critical path."""

import json

import pytest

from repro.api import RunConfig, profile
from repro.sim.trace import TaskRecord
from repro.telemetry import (
    ManualClock,
    Tracer,
    analyze_critical_path,
    chrome_trace,
    format_critical_path,
    maybe_span,
    trace_to_json,
    validate_chrome_trace,
)
from repro.telemetry.critical_path import WAIT_LABEL, group_label


class TestSpans:
    def test_nesting_records_parent_ids(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(2.0)
            clock.advance(0.5)
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.duration == pytest.approx(2.0)
        assert outer.duration == pytest.approx(3.5)
        # Spans are stored in creation (start) order.
        assert [s.name for s in tracer.completed_spans()] == \
            ["outer", "inner"]

    def test_sibling_order_and_ids_sequential(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ids = [s.span_id for s in tracer.completed_spans()]
        assert ids == [0, 1]

    def test_add_span_rejects_negative_duration(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(ValueError):
            tracer.add_span("bad", start=2.0, end=1.0)

    def test_add_span_inherits_open_parent(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer") as outer:
            child = tracer.add_span("modeled", start=0.0, end=1.0)
        assert child.parent_id == outer.span_id

    def test_maybe_span_noop_without_tracer(self):
        with maybe_span(None, "anything") as span:
            assert span is None

    def test_tracks_first_appearance_order(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("a", track="train"):
            pass
        with tracer.span("b", track="serve"):
            pass
        tracer.instant("shed", timestamp=0.0, track="slo")
        assert tracer.tracks() == ["train", "serve", "slo"]


def _synthetic_records():
    """A 3-op chain whose middle op (a 5 s net transfer) dominates."""
    first = TaskRecord("load", 0.0, 1.0,
                       segments=(("gpu_sm", 0.0, 1.0),))
    second = TaskRecord("allreduce", 1.0, 6.0, preds=("load",),
                        segments=(("net", 1.0, 6.0),))
    third = TaskRecord("apply", 6.0, 7.0, preds=("allreduce",),
                       segments=(("gpu_sm", 6.0, 7.0),))
    # Off-path task: finishes early, must not appear on the path.
    extra = TaskRecord("side", 0.0, 0.5,
                       segments=(("cpu", 0.0, 0.5),))
    return [first, second, third, extra]


class TestCriticalPath:
    def test_known_bottleneck_ranks_first(self):
        report = analyze_critical_path(_synthetic_records())
        assert report.makespan == pytest.approx(7.0)
        top = report.top(1)[0]
        assert top.label == "allreduce"
        assert top.seconds == pytest.approx(5.0)
        assert top.share == pytest.approx(5.0 / 7.0)
        assert top.dominant_class == "communication"

    def test_path_partitions_makespan(self):
        report = analyze_critical_path(_synthetic_records())
        assert report.path[0].start == pytest.approx(0.0)
        assert report.path[-1].end == pytest.approx(report.makespan)
        for prev, step in zip(report.path, report.path[1:]):
            assert step.start == pytest.approx(prev.end)
        assert report.coverage(len(report.entries)) == pytest.approx(1.0)
        assert "side" not in {step.name for step in report.path}

    def test_queue_wait_becomes_wait_step(self):
        stalled = [
            TaskRecord("a", 0.0, 1.0, segments=(("gpu_sm", 0.0, 1.0),)),
            # Ready at 1.0 but only executes 2.0..3.0: 1 s of queueing.
            TaskRecord("b", 1.0, 3.0, preds=("a",),
                       segments=(("gpu_sm", 2.0, 3.0),)),
        ]
        report = analyze_critical_path(stalled)
        entry = {e.label: e for e in report.entries}["b"]
        assert entry.classes["wait"] == pytest.approx(1.0)
        assert report.class_seconds["wait"] == pytest.approx(1.0)

    def test_gap_between_ops_attributed_to_wait(self):
        gapped = [
            TaskRecord("a", 0.0, 1.0, segments=(("gpu_sm", 0.0, 1.0),)),
            TaskRecord("b", 2.0, 3.0, preds=("a",),
                       segments=(("gpu_sm", 2.0, 3.0),)),
        ]
        report = analyze_critical_path(gapped)
        waits = [s for s in report.path if s.kind == "wait"]
        assert len(waits) == 1
        assert waits[0].seconds == pytest.approx(1.0)
        assert any(e.label == WAIT_LABEL for e in report.entries)

    def test_group_label_collapses_instances(self):
        assert group_label("it2/s3/dim128.1/gather") == "dim128.1/gather"
        assert group_label("it0/mb1/mlp/fwd") == "mlp/fwd"
        assert group_label("it0") == "it0"  # nothing left: keep the name

    def test_instances_aggregate_into_one_entry(self):
        chain = []
        prev = None
        for it in range(3):
            name = f"it{it}/gather"
            start = float(it)
            chain.append(TaskRecord(
                name, start, start + 1.0,
                preds=(prev,) if prev else (),
                segments=(("hbm", start, start + 1.0),)))
            prev = name
        report = analyze_critical_path(chain)
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.label == "gather"
        assert entry.occurrences == 3
        assert entry.seconds == pytest.approx(3.0)

    def test_empty_records(self):
        report = analyze_critical_path([], makespan=1.0)
        assert report.entries == []
        assert report.coverage() == 0.0

    def test_top_k_validation(self):
        with pytest.raises(ValueError):
            analyze_critical_path(_synthetic_records(), top_k=0)

    def test_format_contains_ranking_and_coverage(self):
        report = analyze_critical_path(_synthetic_records())
        text = format_critical_path(report)
        assert "allreduce" in text
        assert "coverage" in text
        assert "communication" in text


class TestCriticalPathOnHeadlineWorkload:
    def test_top10_explains_the_makespan(self):
        # The paper's headline workload: W&D / Product-1 / eflops:16 /
        # PICASSO, the attribution quality ``repro profile`` reports.
        report = profile(RunConfig()).critical_path
        assert report.makespan > 0
        assert report.coverage(10) >= 0.90
        # The ranking and the class attribution both partition path time.
        total = sum(report.class_seconds.values())
        assert abs(total - report.makespan) \
            < 1e-6 * max(1.0, report.makespan)


class TestChromeTrace:
    def test_schema_validates(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("run", track="train"):
            clock.advance(1.0)
        tracer.instant("marker", timestamp=0.5, track="train")
        payload = chrome_trace(records=_synthetic_records(),
                               tracer=tracer,
                               metadata={"case": "unit"})
        count = validate_chrome_trace(payload)
        assert count > 0
        assert payload["otherData"] == {"case": "unit"}

    def test_events_sorted_by_timestamp(self):
        payload = chrome_trace(records=_synthetic_records())
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)

    def test_microseconds_and_durations(self):
        payload = chrome_trace(records=_synthetic_records())
        by_name = {e["name"]: e for e in payload["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["allreduce"]["ts"] == pytest.approx(1_000_000.0)
        assert by_name["allreduce"]["dur"] == pytest.approx(5_000_000.0)
        assert by_name["allreduce"]["cat"] == "net"

    def test_track_metadata_present(self):
        payload = chrome_trace(records=_synthetic_records())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert "M" in phases
        names = {e["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M"}
        assert "thread_name" in names

    def test_validation_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                                  "tid": 1, "ts": -1.0, "dur": 0.0}]})


class TestProfileDeterminism:
    CONFIG = RunConfig(cluster="eflops:2", batch_size=2_000, iterations=1)

    def test_same_seedless_config_is_byte_identical(self):
        first = profile(self.CONFIG)
        second = profile(self.CONFIG)
        assert trace_to_json(first.trace) == trace_to_json(second.trace)
        assert first.critical_path.as_dict() == \
            second.critical_path.as_dict()

    def test_trace_round_trips_through_json(self):
        result = profile(self.CONFIG)
        payload = json.loads(trace_to_json(result.trace))
        assert validate_chrome_trace(payload) > 0

    def test_default_workload_coverage_at_ten(self):
        result = profile(RunConfig())
        assert result.critical_path.coverage(10) >= 0.90
        assert result.critical_path.makespan == pytest.approx(
            result.report.result.makespan)
