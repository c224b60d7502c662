"""Shared machinery for the facade's frozen config dataclasses.

``RunConfig``, ``ServeConfig``, ``StreamConfig``, ``TuneConfig`` and
``PicassoConfig`` all follow one contract — ``with_overrides`` for
sweeps, ``as_dict``/``from_dict`` for lossless JSON round-trips — and
each used to carry its own copy of that boilerplate.  :class:`ConfigBase`
is the single implementation; subclasses only declare how their
non-scalar fields serialize via :data:`ConfigBase._FIELD_CODECS`.
:func:`require_positive`, :func:`require_finite`, :func:`require_share`
and :func:`require_choice` are the field checks their ``__post_init__``
methods share.

The mixin lives outside :mod:`repro.api` so that :mod:`repro.core`
(which the facade imports) can rebase :class:`~repro.core.config.
PicassoConfig` on it without an import cycle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields as dataclass_fields, replace


def require_positive(config, *names: str, integer: bool = True,
                     zero: bool = False) -> None:
    """Raise a ValueError naming the first of ``config``'s ``names``
    fields that is not an integer >= 1 (numpy integers pass; bool,
    floats and strings do not) or, with ``integer=False``, a finite
    number > 0.  ``zero=True`` also accepts 0 (counts and durations
    that may be empty)."""
    for name in names:
        value = getattr(config, name)
        if integer:
            valid = isinstance(value, numbers.Integral)
        else:
            valid = isinstance(value, numbers.Real) and math.isfinite(value)
        if not valid or isinstance(value, bool) \
                or not (value >= 0 if zero else value > 0):
            kind = "an integer" if integer else "finite and"
            low = ">= 0" if zero else (">= 1" if integer else "> 0")
            raise ValueError(f"{name} must be {kind} {low}, got {value!r}")


def require_finite(config, *names: str) -> None:
    """Raise a ValueError naming the first of ``config``'s ``names``
    fields that is not a finite number (of either sign)."""
    for name in names:
        value = getattr(config, name)
        if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_share(config, *names: str) -> None:
    """Raise a ValueError naming the first of ``config``'s ``names``
    fields that is not a number in ``[0, 1)``."""
    for name in names:
        value = getattr(config, name)
        if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                or not 0.0 <= value < 1.0):
            raise ValueError(f"{name} must be in [0, 1), got {value!r}")


def require_choice(config, name: str, choices) -> None:
    """Raise a ValueError naming field ``name`` of ``config`` unless
    its value is one of ``choices``."""
    value = getattr(config, name)
    if value not in choices:
        raise ValueError(
            f"unknown {name} {value!r}; expected one of {choices}")


def codec(encode, decode):
    """An ``(encode, decode)`` pair for :data:`ConfigBase._FIELD_CODECS`.

    ``encode`` maps a live field value to a JSON-friendly payload;
    ``decode`` rebuilds the value and must tolerate already-built
    instances (``from_dict`` callers sometimes pass them through).
    """
    return (encode, decode)


def dict_codec(cls):
    """Codec for a field holding an ``as_dict``/``from_dict`` object."""
    return codec(
        lambda value: value.as_dict(),
        lambda value: cls.from_dict(value)
        if isinstance(value, dict) else value)


class ConfigBase:
    """Mixin giving config dataclasses one serialization contract.

    Subclasses are frozen dataclasses; they may declare per-field
    codecs in ``_FIELD_CODECS`` (``{field_name: (encode, decode)}``).
    ``None`` values bypass codecs in both directions, so optional
    nested configs (``fault_plan``, ``picasso``) serialize as ``null``.
    """

    _FIELD_CODECS: dict = {}

    def with_overrides(self, **changes):
        """A copy with some fields replaced (sweeps, ablations).

        Goes through ``dataclasses.replace``, which re-runs
        ``__post_init__`` — an invalid override (a tuner proposal, a
        mistyped sweep) fails here at construction, not deep inside
        ``run()``.
        """
        return replace(self, **changes)

    def as_dict(self) -> dict:
        """Plain-dict snapshot (trace metadata, logs); round-trips
        through :meth:`from_dict`."""
        payload = {}
        for spec in dataclass_fields(self):
            value = getattr(self, spec.name)
            field_codec = self._FIELD_CODECS.get(spec.name)
            if field_codec is not None and value is not None:
                value = field_codec[0](value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict):
        """Rebuild a config from :meth:`as_dict` output.

        Unknown keys raise :class:`ValueError` — a silently dropped
        key is a config that quietly ran with defaults.
        """
        known = [spec.name for spec in dataclass_fields(cls)]
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} key(s) {unknown}; "
                f"expected a subset of {known}")
        settings = {}
        for key, value in payload.items():
            field_codec = cls._FIELD_CODECS.get(key)
            if field_codec is not None and value is not None:
                value = field_codec[1](value)
            settings[key] = value
        return cls(**settings)
