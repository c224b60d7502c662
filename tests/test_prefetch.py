"""Tests for the hot/cold lookahead prefetch pipeline (repro.prefetch)."""

import numpy as np
import pytest

from repro.api import RunConfig, ServeConfig, StreamConfig, profile, run, \
    serve, stream
from repro.embedding.counter import FrequencyCounter
from repro.embedding.hybrid_hash import HybridHash
from repro.embedding.table import EmbeddingTable
from repro.prefetch import (
    AdaptiveResidency,
    BatchClass,
    FifoClassifier,
    HotnessClassifier,
    LookaheadPrefetcher,
    PrefetchConfig,
    batch_classifier,
    batch_classifiers,
    choose_deadline_aware,
    register_batch_classifier,
    resident_from_cache,
    resident_from_counter,
)
from repro.prefetch import classifiers as classifiers_module

#: Tiny-but-real facade workload (seconds, not minutes).
_WORKLOAD = dict(model="W&D", dataset="Product-1", scale=0.05,
                 cluster="eflops:2", batch_size=4_000, iterations=2)


def _zipf_stream(batches=32, batch_size=256, vocab=20_000, seed=0,
                 cold_every=4, hot_rows=1_000):
    """Skewed stream with a periodic uniform cold scan."""
    rng = np.random.default_rng(seed)
    stream_ids = []
    for index in range(batches):
        if (index + 1) % cold_every == 0:
            stream_ids.append(rng.integers(hot_rows, vocab, batch_size,
                                           dtype=np.int64))
        else:
            ranks = rng.zipf(1.2, size=batch_size)
            stream_ids.append(np.minimum(ranks, hot_rows) - 1)
    return stream_ids


def _oracle(stream_ids, hot_rows=1_000):
    counter = FrequencyCounter()
    for ids in stream_ids:
        counter.observe(ids)
    return resident_from_counter(counter, hot_rows)


class TestPrefetchConfig:
    def test_defaults_and_validation(self):
        config = PrefetchConfig()
        assert config.lookahead_depth == 4
        assert config.policy == "hotness"
        assert config.reorders
        with pytest.raises(ValueError):
            PrefetchConfig(lookahead_depth=0)
        with pytest.raises(ValueError):
            PrefetchConfig(hot_threshold=1.5)
        with pytest.raises(ValueError):
            PrefetchConfig(max_inflight_bytes=0.0)
        with pytest.raises(ValueError):
            PrefetchConfig(policy="")
        with pytest.raises(ValueError, match="policy"):
            PrefetchConfig(policy="typo")

    def test_fifo_and_depth_one_never_reorder(self):
        assert not PrefetchConfig(policy="fifo").reorders
        assert not PrefetchConfig(lookahead_depth=1).reorders

    def test_round_trip(self):
        config = PrefetchConfig(lookahead_depth=8, hot_threshold=0.25,
                                max_inflight_bytes=1e6, policy="fifo")
        assert PrefetchConfig.from_dict(config.as_dict()) == config

    @pytest.mark.parametrize("facade_cls,extra", [
        (RunConfig, {}),
        (ServeConfig, {}),
        (StreamConfig, {}),
    ])
    def test_facade_round_trip(self, facade_cls, extra):
        prefetch = PrefetchConfig(lookahead_depth=2, hot_threshold=0.9)
        config = facade_cls(prefetch=prefetch, **extra)
        back = facade_cls.from_dict(config.as_dict())
        assert back.prefetch == prefetch
        # Lossless: a second round trip is byte-stable.
        assert facade_cls.from_dict(back.as_dict()).as_dict() \
            == back.as_dict()

    def test_facade_default_is_off(self):
        for facade_cls in (RunConfig, ServeConfig, StreamConfig):
            config = facade_cls()
            assert config.prefetch is None
            assert facade_cls.from_dict(config.as_dict()).prefetch is None


class TestClassifierRegistry:
    def test_builtins_registered(self):
        names = batch_classifiers()
        assert "hotness" in names and "fifo" in names

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="hotness"):
            batch_classifier("no-such-policy")

    def test_register_duplicate_and_overwrite(self):
        def factory(config, resident=None):
            return FifoClassifier()

        register_batch_classifier("test-dup", factory)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_batch_classifier("test-dup", factory)
            register_batch_classifier("test-dup", factory,
                                      overwrite=True)
        finally:
            classifiers_module._CLASSIFIER_REGISTRY.pop("test-dup", None)

    def test_live_view(self):
        import repro.prefetch as prefetch_module

        def factory(config, resident=None):
            return FifoClassifier()

        register_batch_classifier("test-live", factory)
        try:
            assert "test-live" in prefetch_module.BATCH_CLASSIFIERS
        finally:
            classifiers_module._CLASSIFIER_REGISTRY.pop("test-live",
                                                        None)
        assert "test-live" not in prefetch_module.BATCH_CLASSIFIERS

    def test_plugin_policy_drives_pipeline(self):
        register_batch_classifier(
            "test-all-cold",
            lambda config, resident=None: HotnessClassifier(
                1.0, resident=None))
        try:
            config = PrefetchConfig(policy="test-all-cold")
            prefetcher = LookaheadPrefetcher(config)
            assert prefetcher.plan(_zipf_stream(batches=8)) \
                == list(range(8))
        finally:
            classifiers_module._CLASSIFIER_REGISTRY.pop("test-all-cold",
                                                        None)


class TestClassifiers:
    def test_hotness_scores_residency_fraction(self):
        classifier = HotnessClassifier(0.5,
                                       resident=lambda key: key < 2)
        verdict = classifier.classify(np.array([0, 1, 2, 3]), index=7)
        assert verdict == BatchClass(index=7, score=0.5, hot=True)
        assert not classifier.classify(np.array([2, 3, 4]), 0).hot

    def test_no_oracle_means_cold(self):
        classifier = HotnessClassifier(0.5)
        assert classifier.classify(np.array([1, 2]), 0).score == 0.0

    def test_fifo_always_hot(self):
        verdict = FifoClassifier().classify(np.array([9]), index=3)
        assert verdict.hot and verdict.score == 1.0

    def test_resident_from_cache_hybrid_hash(self):
        table = EmbeddingTable(dim=4, seed=0)
        cache = HybridHash(table, hot_bytes=64 * 4 * 4,
                           warmup_iters=0, flush_iters=1)
        rng = np.random.default_rng(0)
        for _ in range(4):
            cache.lookup(rng.integers(0, 8, 128))
        oracle = resident_from_cache(cache)
        assert any(oracle(key) for key in range(8))
        with pytest.raises(TypeError):
            resident_from_cache(object())

    def test_adaptive_residency_learns_stream(self):
        adaptive = AdaptiveResidency(hot_k=4, refresh_every=2)
        assert not adaptive(0)
        for _ in range(2):
            adaptive.observe(np.array([0, 1, 2, 3]))
        assert adaptive(0) and not adaptive(9)


class TestLookaheadPrefetcher:
    def test_plan_is_deterministic_permutation(self):
        stream_ids = _zipf_stream()
        oracle = _oracle(stream_ids)
        config = PrefetchConfig(lookahead_depth=4, hot_threshold=0.6)
        plans = [LookaheadPrefetcher(config, resident=oracle)
                 .plan(stream_ids) for _ in range(2)]
        assert plans[0] == plans[1]
        assert sorted(plans[0]) == list(range(len(stream_ids)))
        assert plans[0] != list(range(len(stream_ids)))  # it reorders

    def test_starvation_bound(self):
        stream_ids = _zipf_stream(batches=48)
        oracle = _oracle(stream_ids)
        for depth in (2, 4, 6):
            config = PrefetchConfig(lookahead_depth=depth,
                                    hot_threshold=0.6)
            plan = LookaheadPrefetcher(config, resident=oracle) \
                .plan(stream_ids)
            assert max(position - index
                       for position, index in enumerate(plan)) \
                <= depth - 1

    def test_fifo_and_depth_one_are_identity(self):
        stream_ids = _zipf_stream()
        oracle = _oracle(stream_ids)
        identity = list(range(len(stream_ids)))
        fifo = LookaheadPrefetcher(
            PrefetchConfig(policy="fifo"), resident=oracle)
        assert fifo.plan(stream_ids) == identity
        assert fifo.stats.staged == 0
        depth_one = LookaheadPrefetcher(
            PrefetchConfig(lookahead_depth=1), resident=oracle)
        assert depth_one.plan(stream_ids) == identity

    def test_inflight_byte_cap_blocks_reorder(self):
        stream_ids = _zipf_stream()
        oracle = _oracle(stream_ids)
        config = PrefetchConfig(lookahead_depth=4, hot_threshold=0.6,
                                max_inflight_bytes=1.0)
        capped = LookaheadPrefetcher(config, resident=oracle)
        assert capped.plan(stream_ids) == list(range(len(stream_ids)))
        assert capped.stats.staged_bytes == 0.0

    def test_staging_account_and_overlap(self):
        stream_ids = _zipf_stream()
        oracle = _oracle(stream_ids)
        config = PrefetchConfig(lookahead_depth=4, hot_threshold=0.6)
        prefetcher = LookaheadPrefetcher(config, resident=oracle,
                                         step_seconds=1e-3)
        prefetcher.plan(stream_ids)
        stats = prefetcher.stats
        assert stats.batches == len(stream_ids)
        assert stats.staged == len(prefetcher.records)
        assert stats.staged > 0
        assert stats.fetch_seconds > 0
        assert 0.0 <= stats.overlap_ratio <= 1.0
        for record in prefetcher.records:
            assert record.exposed_s == pytest.approx(
                record.fetch_s - record.hidden_s)
        # One modeled step per deferral hides these tiny fetches fully.
        assert stats.exposed_fetch_seconds == pytest.approx(0.0)

    def test_zero_step_seconds_exposes_everything(self):
        stream_ids = _zipf_stream()
        oracle = _oracle(stream_ids)
        config = PrefetchConfig(lookahead_depth=4, hot_threshold=0.6)
        prefetcher = LookaheadPrefetcher(config, resident=oracle)
        prefetcher.plan(stream_ids)
        assert prefetcher.stats.hidden_seconds == 0.0
        assert prefetcher.stats.exposed_fetch_seconds \
            == pytest.approx(prefetcher.stats.fetch_seconds)


class TestDeadlineAwareChoice:
    def _classes(self, hot_flags):
        return [BatchClass(index=i, score=1.0 if hot else 0.0, hot=hot)
                for i, hot in enumerate(hot_flags)]

    def test_hot_jumps_when_deadlines_hold(self):
        choice = choose_deadline_aware(
            self._classes([False, True]), estimates=[0.01, 0.01],
            deadlines=[1.0, 1.0], start_s=0.0, lookahead_depth=4,
            deferred=[0, 0])
        assert choice == 1

    def test_never_reorders_past_a_deadline(self):
        # Serving the hot batch first would finish the deferred cold
        # batch at 0.02 > its 0.015 deadline: FIFO order must win.
        choice = choose_deadline_aware(
            self._classes([False, True]), estimates=[0.01, 0.01],
            deadlines=[0.015, 1.0], start_s=0.0, lookahead_depth=4,
            deferred=[0, 0])
        assert choice == 0

    def test_starvation_bound_forces_head(self):
        choice = choose_deadline_aware(
            self._classes([False, True]), estimates=[0.01, 0.01],
            deadlines=[1.0, 1.0], start_s=0.0, lookahead_depth=2,
            deferred=[1, 0])
        assert choice == 0

    def test_fifo_mode_and_singleton(self):
        assert choose_deadline_aware(
            self._classes([False, True]), estimates=[0.01, 0.01],
            deadlines=[1.0, 1.0], start_s=0.0, lookahead_depth=4,
            deferred=[0, 0], reorders=False) == 0
        assert choose_deadline_aware(
            self._classes([True]), estimates=[0.01], deadlines=[1.0],
            start_s=0.0, lookahead_depth=4, deferred=[0]) == 0


class TestFacadeIntegration:
    def test_fifo_and_depth_one_reproduce_baseline_run(self):
        base = RunConfig(record_tasks=True, **_WORKLOAD)
        off = run(base)
        for prefetch in (PrefetchConfig(policy="fifo"),
                         PrefetchConfig(lookahead_depth=1)):
            same = run(base.with_overrides(prefetch=prefetch))
            assert same.ips == off.ips
            assert same.result.makespan == off.result.makespan
            assert tuple(same.result.task_records) \
                == tuple(off.result.task_records)

    def test_hotness_prefetch_changes_the_plan(self):
        off = run(RunConfig(**_WORKLOAD))
        on = run(RunConfig(prefetch=PrefetchConfig(lookahead_depth=4,
                                                   hot_threshold=1.0),
                           **_WORKLOAD))
        assert on.ips != off.ips

    def test_profile_reports_prefetch_monitor_only_when_on(self):
        off = profile(RunConfig(**_WORKLOAD))
        assert "prefetch" not in off.monitors
        on = profile(RunConfig(prefetch=PrefetchConfig(
            lookahead_depth=4, hot_threshold=1.0), **_WORKLOAD))
        summary = on.monitors["prefetch"].summary
        assert summary["prefetch_seconds"] > 0
        assert summary["exposed_fetch_seconds"] >= 0.0

    def test_serving_fifo_prefetch_is_identity(self):
        base = ServeConfig(requests=600, rate_qps=30_000.0)
        off = serve(base)
        fifo = serve(base.with_overrides(
            prefetch=PrefetchConfig(policy="fifo")))
        assert fifo.as_dict() == off.as_dict()

    def test_serving_hotness_prefetch_serves_everything(self):
        report = serve(ServeConfig(
            requests=600, rate_qps=30_000.0,
            prefetch=PrefetchConfig(lookahead_depth=4)))
        assert report.served + report.shed == 600

    def test_stream_fifo_prefetch_is_identity(self):
        base = StreamConfig(requests=400, train_steps=40,
                            publish_interval=10)
        off = stream(base)
        fifo = stream(base.with_overrides(
            prefetch=PrefetchConfig(policy="fifo")))
        assert fifo.final_loss == off.final_loss
        assert fifo.publishes == off.publishes

    def test_stream_hotness_prefetch_runs(self):
        report = stream(StreamConfig(
            requests=400, train_steps=40, publish_interval=10,
            prefetch=PrefetchConfig(lookahead_depth=2)))
        assert report.publishes >= 1
