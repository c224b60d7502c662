"""Replay-based throughput prediction for config candidates.

:class:`ReplayPredictor` turns a candidate
:class:`~repro.core.config.PicassoConfig` into a predicted ips without
running the engine: it compiles the candidate's execution plan (cheap,
analytic), totals the planned *work* per resource kind, scales the
recorded base trace's segments by the candidate/base work ratios, and
replays the frozen DAG under those :class:`~repro.replay.CostHooks`.

Work ratios — not solo-time ratios — are the fidelity-critical choice:
recorded segment durations already embed resource contention
(water-filling rate sharing), so crediting candidates with full
solo-efficiency gains double-counts.  Waits follow the asymmetric
``"congestion"`` model for the same reason.  Structural knobs that
move work *between* tasks rather than changing per-kind totals (e.g.
``interleave_sets`` alone) are invisible to per-class scaling; the
search loop compensates by validating its top candidates with real
runs before declaring a winner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.config import PicassoConfig
from repro.core.executor import (
    compile_plan,
    per_iteration_seconds,
    simulate_plan,
)
from repro.core.planner import PicassoPlanner
from repro.replay import CostHooks, ReplayResult, TraceReplayer

#: The iteration-boundary marker throughput accounting keys off.
FIRST_STEP_MARKER = "it0/step_end"

#: Fraction of the background prefetch stream's planned work credited
#: as hidden when predicting a candidate analytically.  The stream
#: runs on its own per-group chains and mostly overlaps foreground
#: execution, but the warm-up iteration and tail exposure keep the
#: realized hiding below perfect — charging the full stream work as
#: foreground (credit 0) would bury the lookahead knobs, crediting it
#: all (1) would over-predict them.
PREFETCH_HIDE_CREDIT = 0.7


@dataclass(frozen=True)
class Prediction:
    """One candidate's replay-predicted outcome."""

    picasso: PicassoConfig
    ips: float
    makespan: float
    seconds_per_iteration: float
    hooks: CostHooks
    replay: ReplayResult = field(repr=False)


def _picasso_key(picasso: PicassoConfig) -> str:
    """Stable cache key for a (possibly unhashable) config."""
    return json.dumps(picasso.as_dict(), sort_keys=True,
                      separators=(",", ":"))


class ReplayPredictor:
    """Predicts candidate throughput by replaying a recorded base run.

    :param records: :class:`~repro.sim.trace.TaskRecord` list of the
        base run (``record_tasks=True``), in engine completion order.
    :param base_picasso: the config the trace was recorded under; work
        ratios are taken relative to its plan.
    :param wait_model: :data:`~repro.replay.WAIT_MODELS` policy for
        re-derived queue waits.
    :param shrink_credit: exponent damping work *reductions* (ratios
        below 1 are raised to this power).  The base run's overlap
        structure was shaped by the base geometry, so freed work only
        partially converts into saved wall-clock; crediting it fully
        (``1.0``) systematically over-predicts candidates that slash
        one kind's work (e.g. ``micro_batches=1`` collapsing launch
        overhead).  Work *growth* is always charged in full.
    """

    def __init__(self, model, cluster, batch_size: int,
                 iterations: int, records,
                 base_picasso: PicassoConfig | None = None,
                 wait_model: str = "congestion",
                 shrink_credit: float = 0.5):
        if not 0.0 < shrink_credit <= 1.0:
            raise ValueError(
                f"shrink_credit must be in (0, 1], got {shrink_credit}")
        self.model = model
        self.cluster = cluster
        self.batch_size = batch_size
        self.iterations = iterations
        self.base_picasso = base_picasso or PicassoConfig()
        self.wait_model = wait_model
        self.shrink_credit = shrink_credit
        self.replayer = TraceReplayer(records)
        self._work_cache: dict = {}
        self._prediction_cache: dict = {}
        self._base_work = self.plan_work(self.base_picasso)

    def _plan(self, picasso: PicassoConfig):
        planner = PicassoPlanner(picasso)
        return planner.plan(self.model, self.cluster, self.batch_size)

    def _plan_totals(self, picasso: PicassoConfig) -> tuple:
        """``(totals, stream)`` planned work per resource-kind value.

        ``totals`` maps ``kind_value -> (work, solo_seconds)`` over
        *every* task; ``stream`` maps ``kind_value -> work`` counting
        only background prefetch-stream tasks (``tags["layer"] ==
        "prefetch"``), which mostly hide under foreground execution
        and must not be charged at face value (see
        :data:`PREFETCH_HIDE_CREDIT`).
        """
        key = _picasso_key(picasso)
        cached = self._work_cache.get(key)
        if cached is not None:
            return cached
        _summary, table, resources = compile_plan(
            self._plan(picasso), self.iterations)
        capacity = {kind.value: resource.capacity
                    for kind, resource in resources.items()}
        totals: dict = {}
        stream: dict = {}
        for phases, tags in zip(table.phases, table.tags):
            on_stream = ("layer", "prefetch") in tags
            for kind, work, max_rate in phases:
                rate = min(capacity[kind], max_rate)
                total, solo = totals.get(kind, (0.0, 0.0))
                totals[kind] = (total + work, solo + work / rate)
                if on_stream:
                    stream[kind] = stream.get(kind, 0.0) + work
        self._work_cache[key] = (totals, stream)
        return totals, stream

    def plan_work(self, picasso: PicassoConfig) -> dict:
        """Planned work per resource-kind value (and solo seconds).

        Returns ``{kind_value: (work, solo_seconds)}`` where solo
        seconds price each phase at its uncontended rate — the
        analytic lower bound the successive-halving rung-0 screen
        ranks by.
        """
        return self._plan_totals(picasso)[0]

    def bound_seconds(self, picasso: PicassoConfig) -> float:
        """Busiest-resource solo seconds: a makespan lower bound."""
        totals = self.plan_work(picasso)
        return max((solo for _work, solo in totals.values()),
                   default=0.0)

    def hooks_for(self, picasso: PicassoConfig) -> CostHooks:
        """Per-kind work-ratio cost hooks for one candidate.

        Work the candidate spends on the background prefetch stream is
        discounted by :data:`PREFETCH_HIDE_CREDIT` before the ratio:
        the base trace is (typically) prefetch-off, so charging the
        stream as if it ran in the foreground would make every
        lookahead candidate look strictly worse than its real run.
        """
        candidate, stream = self._plan_totals(picasso)
        scales = {}
        for kind_value, (base_work, _solo) in self._base_work.items():
            if base_work <= 0.0:
                continue
            work = candidate.get(kind_value, (0.0, 0.0))[0]
            work = max(0.0, work - PREFETCH_HIDE_CREDIT
                       * stream.get(kind_value, 0.0))
            scale = work / base_work
            if scale < 1.0:
                # A knob can zero out a kind entirely (e.g. caching
                # absorbing all cold fetches); floor the scale so the
                # replayed segment survives as an epsilon rather than
                # inverting time.  Reductions are then damped by the
                # shrink-credit exponent (see class docstring).
                scale = max(scale, 1e-9) ** self.shrink_credit
            if scale != 1.0:
                scales[kind_value] = scale
        return CostHooks(kind_overrides=tuple(sorted(scales.items())),
                         wait_model=self.wait_model)

    def predict(self, picasso: PicassoConfig) -> Prediction:
        """Replay the base trace under ``picasso``'s work ratios."""
        key = _picasso_key(picasso)
        cached = self._prediction_cache.get(key)
        if cached is not None:
            return cached
        hooks = self.hooks_for(picasso)
        replay = self.replayer.replay(hooks)
        per_iteration = per_iteration_seconds(
            replay.makespan, replay.finish(FIRST_STEP_MARKER),
            self.iterations)
        prediction = Prediction(
            picasso=picasso,
            ips=self.batch_size / per_iteration,
            makespan=replay.makespan,
            seconds_per_iteration=per_iteration,
            hooks=hooks,
            replay=replay)
        self._prediction_cache[key] = prediction
        return prediction

    def measure(self, picasso: PicassoConfig,
                iterations: int | None = None) -> float:
        """Ground truth: simulate the candidate and return its ips.

        Short ``iterations`` make this the successive-halving top
        rung (warm-up profiling); the full search-loop validation
        runs through the :func:`repro.api.run` facade instead.
        """
        report = simulate_plan(self._plan(picasso),
                               iterations=iterations or self.iterations)
        return report.ips
