"""Tests for the warm-up auto-tuner."""

import pytest

from repro.core import PicassoConfig
from repro.data import product1
from repro.hardware import eflops_cluster
from repro.models import wide_deep
from repro.tuning import AutoTuner, TuningResult


@pytest.fixture(scope="module")
def workload():
    return wide_deep(product1(0.005)), eflops_cluster(4)


class TestAutoTuner:
    def test_explicit_grid_is_searched(self, workload):
        model, cluster = workload
        tuner = AutoTuner(set_candidates=(1, 3),
                          micro_candidates=(1, 2),
                          warmup_iterations=1)
        result = tuner.tune(model, cluster, batch_size=2048)
        assert len(result.trials) == 4
        assert result.best_ips == max(trial["ips"]
                                      for trial in result.trials)

    def test_best_config_fields(self, workload):
        model, cluster = workload
        tuner = AutoTuner(set_candidates=(2,), micro_candidates=(3,),
                          warmup_iterations=1)
        result = tuner.tune(model, cluster, batch_size=2048)
        assert isinstance(result, TuningResult)
        assert result.interleave_sets == 2
        assert result.micro_batches == 3

    def test_default_grid_brackets_analytic_plan(self, workload):
        model, cluster = workload
        tuner = AutoTuner(warmup_iterations=1)
        sets, micros = tuner._grids(model, cluster, 2048)
        assert len(sets) >= 2
        assert 1 in micros or min(micros) >= 1

    def test_tuned_config_is_usable(self, workload):
        from repro.core import PicassoExecutor
        model, cluster = workload
        tuner = AutoTuner(set_candidates=(1, 3),
                          micro_candidates=(1, 3),
                          warmup_iterations=1)
        result = tuner.tune(model, cluster, batch_size=2048)
        report = PicassoExecutor(model, cluster,
                                 result.best_config).run(2048,
                                                         iterations=1)
        assert report.ips > 0

    def test_respects_base_config_toggles(self, workload):
        model, cluster = workload
        base = PicassoConfig().without("caching")
        tuner = AutoTuner(base_config=base, set_candidates=(1,),
                          micro_candidates=(1,), warmup_iterations=1)
        result = tuner.tune(model, cluster, batch_size=2048)
        assert not result.best_config.enable_caching

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            AutoTuner(warmup_iterations=0)
