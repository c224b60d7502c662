"""The declared knob space the auto-tuner searches over.

A :class:`Knob` names one :class:`~repro.core.config.PicassoConfig`
field and its candidate values; a :class:`KnobSpace` is an ordered
tuple of knobs whose assignments apply to a base config through
``with_overrides`` — so every proposal re-runs the config's
``__post_init__`` validation and an invalid candidate fails at
construction, before any replay or run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from itertools import product

from repro.core.config import PicassoConfig

_GIB = float(1 << 30)

_PICASSO_FIELDS = tuple(spec.name
                        for spec in dataclass_fields(PicassoConfig))


@dataclass(frozen=True)
class Knob:
    """One tunable config field and its candidate values, in order."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if self.name not in _PICASSO_FIELDS:
            raise ValueError(
                f"unknown knob {self.name!r}; expected a "
                f"PicassoConfig field: {list(_PICASSO_FIELDS)}")
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"knob {self.name!r} has no values")

    def as_dict(self) -> dict:
        return {"name": self.name, "values": list(self.values)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Knob":
        return cls(name=payload["name"],
                   values=tuple(payload["values"]))


@dataclass(frozen=True)
class KnobSpace:
    """An ordered set of knobs defining the candidate grid."""

    knobs: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.knobs, tuple):
            object.__setattr__(self, "knobs", tuple(self.knobs))
        if not self.knobs:
            raise ValueError("knob space is empty")
        names = [knob.name for knob in self.knobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate knob name(s) in {names}")

    def __iter__(self):
        return iter(self.knobs)

    def __len__(self) -> int:
        return len(self.knobs)

    @property
    def size(self) -> int:
        """Number of assignments in the full grid."""
        total = 1
        for knob in self.knobs:
            total *= len(knob.values)
        return total

    def assignments(self):
        """Iterate the full grid as ``{knob: value}`` dicts."""
        names = [knob.name for knob in self.knobs]
        for values in product(*(knob.values for knob in self.knobs)):
            yield dict(zip(names, values))

    def apply(self, base: PicassoConfig,
              assignment: dict) -> PicassoConfig:
        """``base`` with ``assignment`` applied (validated copy).

        Raises :class:`ValueError` for keys outside the space, and —
        via ``with_overrides`` re-running ``__post_init__`` — for
        values the config itself rejects.
        """
        known = {knob.name for knob in self.knobs}
        unknown = sorted(set(assignment) - known)
        if unknown:
            raise ValueError(
                f"assignment key(s) {unknown} outside the knob "
                f"space {sorted(known)}")
        if not assignment:
            return base
        return base.with_overrides(**assignment)

    def fitting(self, batch_size: int) -> "KnobSpace":
        """This space without the ``micro_batches`` values above
        ``batch_size``, which no run at that batch accepts.

        Raises :class:`ValueError` naming ``batch_size`` when no value
        is left.
        """
        knobs = []
        for knob in self.knobs:
            if knob.name == "micro_batches":
                values = tuple(value for value in knob.values
                               if value is None or value <= batch_size)
                if not values:
                    raise ValueError(
                        f"no micro_batches candidate {list(knob.values)} "
                        f"fits batch_size ({batch_size})")
                knob = Knob(knob.name, values)
            knobs.append(knob)
        return KnobSpace(tuple(knobs))

    def as_dict(self) -> dict:
        return {"knobs": [knob.as_dict() for knob in self.knobs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "KnobSpace":
        return cls(knobs=tuple(Knob.from_dict(entry)
                               for entry in payload["knobs"]))


def default_space() -> KnobSpace:
    """The stock search space: interleaving geometry plus cache size.

    Mirrors the knobs the paper reports tuning "empirically from
    warm-up iterations": K-Interleaving set count, D-Interleaving
    micro-batch count, and the HybridHash hot-storage budget.
    """
    return KnobSpace(knobs=(
        Knob("interleave_sets", (1, 2, 4, 8)),
        Knob("micro_batches", (1, 2, 3, 4, 8)),
        Knob("hot_storage_bytes",
             (0.5 * _GIB, 1.0 * _GIB, 2.0 * _GIB)),
        # Hot/cold lookahead pipeline: window depth and the residency
        # bar for running a batch ahead of colder ones.
        Knob("prefetch_lookahead", (1, 2, 4)),
        Knob("prefetch_hot_threshold", (0.4, 0.6, 0.8)),
    ))
