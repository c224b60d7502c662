"""Run provenance manifests: which code, config and knobs produced this.

Every artifact the repo can persist — a :class:`~repro.sim.engine.
SimResult`, a :class:`~repro.sim.trace.FrozenTrace`, a benchmark
snapshot, a published model version — answers perf questions only
relative to the run that produced it.  A :class:`RunManifest` freezes
that identity: the config dict and its short fingerprint, the
headline workload descriptors (model / dataset / cluster / framework),
the optimization knobs, the schema versions of the formats involved
and a best-effort ``git describe`` of the working tree.

Manifests are additive metadata, never gated surface: regression
comparisons (:func:`repro.bench.snapshot.compare_snapshots`) ignore
them, so two snapshots from different commits still diff cleanly, and
the trace-diff engine (:mod:`repro.telemetry.diff`) prints both sides'
manifests so an attribution report names the runs it compared.

Everything except the git field is a pure function of the inputs; the
git field is constant within one checkout, which keeps the determinism
CI (two runs, one checkout, byte-identical artifacts) intact.
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass, field
from functools import lru_cache

from repro.sim.trace import TRACE_SCHEMA_VERSION

#: Bump when the manifest layout changes incompatibly.
PROVENANCE_SCHEMA_VERSION = 1

#: What :func:`git_describe` reports when no git identity is available.
GIT_UNKNOWN = "unknown"

#: Config keys lifted to top-level manifest descriptors when present.
_DESCRIPTOR_KEYS = ("model", "dataset", "cluster", "framework")


def config_fingerprint(config: dict) -> str:
    """Short stable hash of a config dict (workload identity).

    Canonical compact JSON, sha256, first 16 hex chars; the benchmark
    snapshots gate on this same function.
    """
    import hashlib
    import json
    compact = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=1)
def git_describe() -> str:
    """``git describe --always --dirty`` of this checkout, cached.

    Falls back to :data:`GIT_UNKNOWN` when git (or the repository) is
    unavailable — provenance must never make a run fail.
    """
    root = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "-C", root, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return GIT_UNKNOWN
    described = out.stdout.strip()
    if out.returncode != 0 or not described:
        return GIT_UNKNOWN
    return described


@dataclass(frozen=True)
class RunManifest:
    """The provenance of one run, JSON-ready and round-trippable.

    :param kind: what produced this manifest (``run`` / ``profile`` /
        ``trace`` / ``bench`` / ``serve`` / ``stream`` / ...).
    :param config: the full declarative config of the run, as a dict
        (a :meth:`~repro.config_base.ConfigBase.as_dict` snapshot).
    :param knobs: the optimization-knob assignment in effect (e.g.
        the ``picasso`` sub-config), when distinct from ``config``.
    :param schemas: name -> schema version of every persisted format
        this run touches.
    :param git: ``git describe`` of the producing checkout.
    :param extra: free-form additions (seed, report name, ...).
    """

    kind: str = "run"
    config: dict = field(default_factory=dict)
    knobs: dict = field(default_factory=dict)
    schemas: dict = field(default_factory=dict)
    git: str = GIT_UNKNOWN
    extra: dict = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(self.config)

    def descriptors(self) -> dict:
        """The headline workload identity lifted out of the config."""
        return {key: self.config[key] for key in _DESCRIPTOR_KEYS
                if key in self.config}

    def as_dict(self) -> dict:
        return {
            "schema_version": PROVENANCE_SCHEMA_VERSION,
            "kind": self.kind,
            "config": dict(self.config),
            "config_fingerprint": self.fingerprint,
            "descriptors": self.descriptors(),
            "knobs": dict(self.knobs),
            "schemas": dict(self.schemas),
            "git": self.git,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        version = payload.get("schema_version")
        if version != PROVENANCE_SCHEMA_VERSION:
            raise ValueError(
                f"provenance schema v{version} != supported "
                f"v{PROVENANCE_SCHEMA_VERSION}")
        return cls(kind=str(payload.get("kind", "run")),
                   config=dict(payload.get("config", {})),
                   knobs=dict(payload.get("knobs", {})),
                   schemas=dict(payload.get("schemas", {})),
                   git=str(payload.get("git", GIT_UNKNOWN)),
                   extra=dict(payload.get("extra", {})))


def build_manifest(kind: str = "run", config: dict | None = None,
                   knobs: dict | None = None,
                   schemas: dict | None = None,
                   extra: dict | None = None) -> RunManifest:
    """Assemble a :class:`RunManifest` for the current checkout.

    Fills in ``git describe`` and the trace/provenance schema versions;
    callers add the versions of any further formats they persist.
    """
    combined_schemas = {
        "provenance": PROVENANCE_SCHEMA_VERSION,
        "trace": TRACE_SCHEMA_VERSION,
    }
    combined_schemas.update(schemas or {})
    return RunManifest(kind=kind, config=dict(config or {}),
                       knobs=dict(knobs or {}),
                       schemas=combined_schemas,
                       git=git_describe(),
                       extra=dict(extra or {}))
