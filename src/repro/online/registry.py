"""Versioned snapshot publishing: full bases, delta chains, GC.

The :class:`SnapshotRegistry` is the contract between the streaming
trainer (producer) and the hot-swap servers (consumers): every publish
gets a monotonically increasing version, lands on disk **atomically**
(temp file + ``os.replace``, see
:func:`~repro.training.checkpoint.atomic_savez`), and is recorded in a
``registry.json`` manifest that is itself replaced atomically — a
reader never observes a version whose payload is missing or truncated.

Publishes alternate between two kinds:

* **full** — a complete :func:`~repro.training.checkpoint.save_checkpoint`
  of the model (no optimizer state; serving only needs weights);
* **delta** — a changed-rows-only :class:`~repro.online.delta.DeltaSnapshot`
  chained on the previous version.

Every ``max_chain`` deltas the registry *compacts*: it publishes a
fresh full base so a cold replica never replays an unbounded chain,
then garbage-collects everything older than that base (those versions
are unreachable — materializing any version >= the base never reads
them).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.nn.network import WdlNetwork
from repro.online.delta import (
    apply_delta,
    capture_delta,
    load_delta,
    save_delta,
)
from repro.training.checkpoint import (
    load_checkpoint,
    resolve_checkpoint_path,
    save_checkpoint,
)

_MANIFEST = "registry.json"


@dataclass(frozen=True)
class SnapshotVersion:
    """One published model version (manifest entry)."""

    version: int
    kind: str  # "full" | "delta"
    step: int
    filename: str
    #: full bases: the checkpoint's file size; deltas: the payload
    #: (:meth:`DeltaSnapshot.nbytes`), independent of provenance.
    nbytes: int
    #: the version this delta chains on; ``None`` for full bases.
    base_version: int | None = None
    #: run manifest of the producing trainer (see
    #: :func:`repro.telemetry.provenance.build_manifest`); persisted in
    #: the manifest so serving versions trace back to their run.
    provenance: dict = field(default_factory=dict, compare=False)

    def as_dict(self) -> dict:
        return {"version": self.version, "kind": self.kind,
                "step": self.step, "filename": self.filename,
                "nbytes": self.nbytes,
                "base_version": self.base_version,
                "provenance": self.provenance}

    @classmethod
    def from_dict(cls, payload: dict) -> "SnapshotVersion":
        return cls(version=int(payload["version"]),
                   kind=str(payload["kind"]),
                   step=int(payload["step"]),
                   filename=str(payload["filename"]),
                   nbytes=int(payload["nbytes"]),
                   base_version=payload.get("base_version"),
                   provenance=payload.get("provenance", {}))


class SnapshotRegistry:
    """Publish, resolve and garbage-collect model snapshot versions.

    :param root: directory the payloads and manifest live in (created
        if missing).
    :param max_chain: deltas allowed on one full base before the next
        publish is forced to compact into a fresh full checkpoint.
    """

    def __init__(self, root, max_chain: int = 8):
        if max_chain < 1:
            raise ValueError(f"max_chain must be >= 1, got {max_chain}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_chain = int(max_chain)
        self._versions: dict = {}
        self._next_version = 0
        self.gc_removed = 0
        manifest = self.root / _MANIFEST
        if manifest.exists():
            self._load_manifest(manifest)

    # -- manifest ------------------------------------------------------------

    def _load_manifest(self, path: Path) -> None:
        with open(path) as handle:
            payload = json.load(handle)
        self._versions = {
            entry["version"]: SnapshotVersion.from_dict(entry)
            for entry in payload["versions"]
        }
        self._next_version = int(payload["next_version"])
        self.gc_removed = int(payload.get("gc_removed", 0))

    def _write_manifest(self) -> None:
        payload = {
            "versions": [self._versions[key].as_dict()
                         for key in sorted(self._versions)],
            "next_version": self._next_version,
            "gc_removed": self.gc_removed,
        }
        tmp = self.root / (_MANIFEST + ".tmp")
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.root / _MANIFEST)

    # -- queries -------------------------------------------------------------

    def versions(self) -> list:
        """All live versions, oldest first."""
        return [self._versions[key] for key in sorted(self._versions)]

    def latest(self) -> SnapshotVersion | None:
        """The newest published version (``None`` before any publish)."""
        if not self._versions:
            return None
        return self._versions[max(self._versions)]

    def chain(self, version: int | None = None) -> list:
        """Full base + deltas needed to materialize ``version``.

        Walks ``base_version`` links back to the nearest full
        checkpoint; the returned list is application order (base
        first).  Defaults to the latest version.
        """
        if version is None:
            latest = self.latest()
            if latest is None:
                raise ValueError("registry has no published versions")
            version = latest.version
        if version not in self._versions:
            raise ValueError(f"unknown version {version}; live versions "
                             f"are {sorted(self._versions)}")
        links = []
        cursor = self._versions[version]
        while True:
            links.append(cursor)
            if cursor.kind == "full":
                break
            if cursor.base_version not in self._versions:
                raise ValueError(
                    f"delta v{cursor.version} chains on missing "
                    f"v{cursor.base_version} (GC bug or foreign dir)")
            cursor = self._versions[cursor.base_version]
        return list(reversed(links))

    def chain_length(self) -> int:
        """Deltas sitting on the latest full base."""
        latest = self.latest()
        if latest is None:
            return 0
        return len(self.chain(latest.version)) - 1

    def full_bytes(self) -> int:
        """Size of the most recent full base (0 before any publish)."""
        for entry in reversed(self.versions()):
            if entry.kind == "full":
                return entry.nbytes
        return 0

    def delta_bytes(self) -> list:
        """Payload sizes of every live delta, oldest first."""
        return [entry.nbytes for entry in self.versions()
                if entry.kind == "delta"]

    # -- publishing ----------------------------------------------------------

    def publish(self, network: WdlNetwork, step: int,
                dirty_rows: dict | None = None,
                counters: dict | None = None,
                provenance: dict | None = None) -> SnapshotVersion:
        """Publish the network's current weights as the next version.

        Writes a delta when a base exists, ``dirty_rows`` is given and
        the chain has room; otherwise a full checkpoint (first publish,
        compaction point, or an explicit full via ``dirty_rows=None``).
        Compaction garbage-collects everything older than the new base.

        :param provenance: optional run manifest stamped onto both the
            payload (delta header) and the manifest entry.
        """
        version = self._next_version
        latest = self.latest()
        provenance = dict(provenance or {})
        wants_delta = (dirty_rows is not None and latest is not None
                       and self.chain_length() < self.max_chain)
        if wants_delta:
            delta = capture_delta(network, dirty_rows, version=version,
                                  base_version=latest.version, step=step,
                                  counters=counters,
                                  provenance=provenance)
            path = save_delta(delta, self.root / f"v{version:06d}_delta")
            # Priced by payload, not file size: the file's header embeds
            # the provenance (a git describe string), which would make
            # modeled load times depend on where the run happened.
            entry = SnapshotVersion(
                version=version, kind="delta", step=step,
                filename=path.name, nbytes=delta.nbytes(),
                base_version=latest.version, provenance=provenance)
        else:
            path = resolve_checkpoint_path(
                self.root / f"v{version:06d}_full")
            save_checkpoint(network, path, step=step,
                            metadata={"version": version})
            entry = SnapshotVersion(
                version=version, kind="full", step=step,
                filename=path.name, nbytes=path.stat().st_size,
                provenance=provenance)
        self._versions[version] = entry
        self._next_version = version + 1
        if entry.kind == "full":
            self.gc(before=version)
        self._write_manifest()
        return entry

    def gc(self, before: int | None = None) -> list:
        """Drop versions older than the newest full base (or ``before``).

        Anything strictly older than a full base can never be read
        again — every live chain terminates at that base or newer — so
        its files are deleted and its manifest entries removed.
        Returns the deleted filenames.
        """
        if before is None:
            fulls = [entry.version for entry in self.versions()
                     if entry.kind == "full"]
            if not fulls:
                return []
            before = max(fulls)
        removed = []
        for version in sorted(self._versions):
            if version >= before:
                continue
            entry = self._versions.pop(version)
            target = self.root / entry.filename
            if target.exists():
                target.unlink()
            removed.append(entry.filename)
        self.gc_removed += len(removed)
        self._write_manifest()
        return removed

    # -- materialization -----------------------------------------------------

    def materialize(self, network: WdlNetwork,
                    version: int | None = None) -> SnapshotVersion:
        """Load ``version`` (default latest) into ``network`` in place.

        Restores the nearest full base with
        :func:`~repro.training.checkpoint.load_checkpoint` (which
        validates architecture), then applies the delta chain in
        order; the result is bitwise the trainer's weights at that
        version's publish step.
        """
        links = self.chain(version)
        base = links[0]
        load_checkpoint(network, self.root / base.filename,
                        expected_step=base.step)
        for entry in links[1:]:
            apply_delta(network, load_delta(self.root / entry.filename))
        return links[-1]
