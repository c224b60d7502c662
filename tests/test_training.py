"""Unit tests for the training loops (sync vs async-PS)."""

import numpy as np
import pytest

from repro.data.labeled import LabeledBatchIterator
from repro.data.spec import DatasetSpec, FieldSpec
from repro.nn.network import WdlNetwork
from repro.training import (
    AsyncPsTrainer,
    SyncTrainer,
    evaluate,
    train_and_evaluate,
)


def _dataset():
    return DatasetSpec(name="d", num_numeric=2, fields=(
        FieldSpec(name="a", vocab_size=2000, embedding_dim=8,
                  zipf_exponent=1.1),
        FieldSpec(name="b", vocab_size=2000, embedding_dim=8,
                  zipf_exponent=1.1),
    ))


class TestSyncTrainer:
    def test_returns_per_step_losses(self):
        dataset = _dataset()
        network = WdlNetwork(dataset, variant="wdl", seed=0)
        trainer = SyncTrainer(network)
        losses = trainer.train(
            LabeledBatchIterator(dataset, 128, seed=0), steps=5)
        assert len(losses) == 5

    def test_learning_happens(self):
        dataset = _dataset()
        network = WdlNetwork(dataset, variant="wdl", seed=0)
        SyncTrainer(network).train(
            LabeledBatchIterator(dataset, 512, noise_scale=0.3, seed=0),
            steps=40)
        auc, _ll = evaluate(
            network,
            LabeledBatchIterator(dataset, 512, noise_scale=0.3,
                                 seed=999), batches=5)
        assert auc > 0.6

    def test_negative_steps_rejected(self):
        dataset = _dataset()
        trainer = SyncTrainer(WdlNetwork(dataset, variant="wdl"))
        with pytest.raises(ValueError):
            trainer.train(LabeledBatchIterator(dataset, 16, seed=0), -1)

    def test_tracer_records_one_step_span_per_step(self):
        from repro.telemetry import Tracer

        dataset = _dataset()
        tracer = Tracer()
        trainer = SyncTrainer(WdlNetwork(dataset, variant="wdl", seed=0),
                              tracer=tracer)
        losses = trainer.train(LabeledBatchIterator(dataset, 64, seed=0),
                               steps=3)
        steps = [span for span in tracer.spans
                 if span.name == "train/step"]
        assert len(steps) == 3
        assert all(span.track == "train" for span in steps)
        assert [span.attrs["loss"] for span in steps] == losses
        assert [span.attrs["step"] for span in steps] == [0, 1, 2]


class TestAsyncPsTrainer:
    def test_staleness_zero_equals_sync(self):
        dataset = _dataset()
        sync_net = WdlNetwork(dataset, variant="wdl", seed=0)
        async_net = WdlNetwork(dataset, variant="wdl", seed=0)
        sync_losses = SyncTrainer(sync_net).train(
            LabeledBatchIterator(dataset, 128, seed=0), steps=8)
        async_losses = AsyncPsTrainer(async_net, staleness=0).train(
            LabeledBatchIterator(dataset, 128, seed=0), steps=8)
        assert np.allclose(sync_losses, async_losses)
        for name, (value, _grad) in sync_net.parameters().items():
            other = dict(async_net.parameters().items())[name][0]
            assert np.allclose(value, other)

    def test_stale_gradients_diverge_from_sync(self):
        dataset = _dataset()
        sync_net = WdlNetwork(dataset, variant="wdl", seed=0)
        stale_net = WdlNetwork(dataset, variant="wdl", seed=0)
        SyncTrainer(sync_net).train(
            LabeledBatchIterator(dataset, 128, seed=0), steps=8)
        AsyncPsTrainer(stale_net, staleness=3).train(
            LabeledBatchIterator(dataset, 128, seed=0), steps=8)
        weights = sync_net.mlp[0].weight
        others = stale_net.mlp[0].weight
        assert not np.allclose(weights, others)

    def test_pending_queue_drains(self):
        dataset = _dataset()
        trainer = AsyncPsTrainer(WdlNetwork(dataset, variant="wdl"),
                                 staleness=4)
        trainer.train(LabeledBatchIterator(dataset, 64, seed=0), steps=6)
        assert len(trainer._pending) == 0

    def test_staleness_validation(self):
        with pytest.raises(ValueError):
            AsyncPsTrainer(WdlNetwork(_dataset(), variant="wdl"),
                           staleness=-1)

    def test_async_still_learns(self):
        dataset = _dataset()
        network = WdlNetwork(dataset, variant="wdl", seed=0)
        AsyncPsTrainer(network, staleness=2).train(
            LabeledBatchIterator(dataset, 512, noise_scale=0.3, seed=0),
            steps=40)
        auc, _ll = evaluate(
            network,
            LabeledBatchIterator(dataset, 512, noise_scale=0.3,
                                 seed=999), batches=5)
        assert auc > 0.55


class TestEvaluate:
    def test_batches_validation(self):
        dataset = _dataset()
        network = WdlNetwork(dataset, variant="wdl")
        with pytest.raises(ValueError):
            evaluate(network, LabeledBatchIterator(dataset, 16, seed=0),
                     batches=0)


class TestHarness:
    def test_train_and_evaluate_sync(self):
        result = train_and_evaluate(_dataset(), "wdl", mode="sync",
                                    steps=20, batch_size=256,
                                    eval_batches=3, noise_scale=0.5)
        assert 0.4 < result.auc <= 1.0
        assert len(result.losses) == 20
        assert result.final_loss == result.losses[-1]

    def test_train_and_evaluate_async(self):
        result = train_and_evaluate(_dataset(), "wdl", mode="async-ps",
                                    steps=20, batch_size=256,
                                    eval_batches=3, noise_scale=0.5)
        assert 0.4 < result.auc <= 1.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            train_and_evaluate(_dataset(), "wdl", mode="quantum")
