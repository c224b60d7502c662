"""Experiment harnesses: one module per table/figure in the paper.

Every module exposes a ``run_*`` function returning plain dict/list
records and a ``claims(rows)`` returning the paper's qualitative claims
as :class:`~repro.experiments.common.Check` verdicts on those rows;
paper tables also carry a ``paper_reference()`` with the published
values.  :mod:`repro.experiments.runner` prints and gates them all, and
EXPERIMENTS.md is regenerated from the same source of truth.
"""

from repro.experiments import common

__all__ = ["common"]
