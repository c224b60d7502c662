"""The cross-batch hot/cold lookahead prefetch pipeline.

:class:`LookaheadPrefetcher` is the scheduling core of the Hotline-
style (arXiv 2204.05436) heterogeneous pipeline: it watches a bounded
window of upcoming batches, classifies each hot (fast-tier resident —
runs immediately) or cold (must gather rows first), and reorders
within the window so hot batches run on the foreground while cold
batches' rows stage on a background stream.  The reorder is
deterministic — a pure function of the batch stream and the attached
residency oracle — and bounded:

* a batch is never deferred more than ``lookahead_depth - 1`` times
  (the starvation bound), and
* a cold batch whose staging would exceed ``max_inflight_bytes`` is
  not deferred at all (it runs in arrival order instead of piling up
  unbounded in-flight transfers).

Every staged batch leaves a :class:`PrefetchRecord` pricing its fetch
and how much of it the foreground hid; :class:`PrefetchStats`
aggregates them into the exposed-fetch-seconds headline the
:class:`~repro.telemetry.monitor.PrefetchMonitor` mirrors on the
simulator side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.statistics import count_distinct
from repro.prefetch.classifiers import batch_classifier
from repro.prefetch.config import PrefetchConfig

#: Default background staging rate when no fetch model is attached —
#: a DRAM-over-PCIe-flavoured 8 GB/s, matching the ``dram`` tier of
#: :data:`repro.embedding.multilevel.DEFAULT_TIERS`'s era.
DEFAULT_FETCH_RATE = 8e9


def default_ids(item) -> np.ndarray:
    """Extract the sparse-ID array from a batch-like object.

    Understands :class:`~repro.data.loader.Batch` (``sparse`` dict of
    per-field arrays) and anything :func:`numpy.asarray` accepts.
    """
    sparse = getattr(item, "sparse", None)
    if isinstance(sparse, dict):
        if not sparse:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(
            [np.asarray(ids).ravel() for ids in sparse.values()])
    return np.asarray(item).ravel()


@dataclass(frozen=True)
class PrefetchRecord:
    """One cold batch's trip through the background stream."""

    index: int  # original stream position
    score: float  # residency score at staging time
    deferred: int  # emissions it was jumped by
    bytes: float  # unique rows staged, in bytes
    fetch_s: float  # modeled background fetch duration
    hidden_s: float  # portion overlapped by foreground compute
    exposed_s: float  # portion the pipeline stalled waiting on

    def as_dict(self) -> dict:
        return {"index": self.index, "score": self.score,
                "deferred": self.deferred, "bytes": self.bytes,
                "fetch_s": self.fetch_s, "hidden_s": self.hidden_s,
                "exposed_s": self.exposed_s}


@dataclass
class PrefetchStats:
    """Aggregate account of one pipeline's scheduling decisions."""

    batches: int = 0
    hot: int = 0
    cold: int = 0
    staged: int = 0
    reordered: int = 0
    staged_bytes: float = 0.0
    fetch_seconds: float = 0.0
    hidden_seconds: float = 0.0

    @property
    def exposed_fetch_seconds(self) -> float:
        """Background fetch time the foreground failed to hide."""
        return max(0.0, self.fetch_seconds - self.hidden_seconds)

    @property
    def overlap_ratio(self) -> float:
        """Hidden fraction of all background fetch time."""
        if self.fetch_seconds <= 0:
            return 0.0
        return self.hidden_seconds / self.fetch_seconds

    def as_dict(self) -> dict:
        """Plain-dict snapshot for benchmarks and telemetry export."""
        return {
            "batches": self.batches,
            "hot": self.hot,
            "cold": self.cold,
            "staged": self.staged,
            "reordered": self.reordered,
            "staged_bytes": self.staged_bytes,
            "fetch_seconds": self.fetch_seconds,
            "hidden_seconds": self.hidden_seconds,
            "exposed_fetch_seconds": self.exposed_fetch_seconds,
            "overlap_ratio": self.overlap_ratio,
        }


@dataclass
class _Entry:
    """One batch waiting in the lookahead window."""

    index: int
    item: object
    ids: np.ndarray
    deferred: int = 0
    staged: bool = False
    score: float = 0.0
    bytes: float = 0.0
    fetch_s: float = 0.0
    issued_at_s: float = 0.0


class LookaheadPrefetcher:
    """Deterministic windowed hot-first scheduler with modeled staging.

    :param config: the :class:`PrefetchConfig` facade knobs.
    :param classifier: an object with ``classify(ids, index) ->
        BatchClass``; defaults to resolving ``config.policy`` through
        the registry with ``resident`` as the residency oracle.
    :param resident: optional ``(id) -> bool`` residency oracle (see
        :func:`~repro.prefetch.classifiers.resident_from_cache`);
        only used when ``classifier`` is not given.
    :param row_bytes: bytes per embedding row, for staging volume.
    :param fetch_cost: optional ``(ids) -> seconds`` background-fetch
        model (e.g. ``cache.expected_access_cost``); defaults to the
        staged bytes over :data:`DEFAULT_FETCH_RATE`.
    :param step_seconds: modeled foreground duration per emitted
        batch, which is what hides in-flight staging; ``0.0`` prices
        every fetch as fully exposed.
    :param ids_fn: ``(item) -> ndarray`` ID extractor; defaults to
        :func:`default_ids`.
    :param observe: optional ``(ids) -> None`` hook called for every
        pushed batch — feeds adaptive oracles
        (:class:`~repro.prefetch.classifiers.AdaptiveResidency`) the
        stream they classify.
    """

    def __init__(self, config: PrefetchConfig, classifier=None,
                 resident=None, row_bytes: float = 64.0,
                 fetch_cost=None, step_seconds: float = 0.0,
                 ids_fn=None, observe=None):
        if row_bytes <= 0:
            raise ValueError(f"row_bytes must be > 0, got {row_bytes}")
        if step_seconds < 0:
            raise ValueError(
                f"step_seconds must be >= 0, got {step_seconds}")
        self.config = config
        self.classifier = classifier if classifier is not None \
            else batch_classifier(config.policy)(config, resident=resident)
        self.row_bytes = float(row_bytes)
        self.fetch_cost = fetch_cost
        self.step_seconds = float(step_seconds)
        self.ids_fn = ids_fn or default_ids
        self.observe = observe
        self.stats = PrefetchStats()
        self.records: list = []
        self._window: list = []
        self._inflight_bytes = 0.0
        self._elapsed_s = 0.0  # modeled foreground time emitted so far
        self._next_index = 0

    # -- window management ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._window)

    def push(self, item) -> None:
        """Append the next arriving batch to the lookahead window."""
        ids = self.ids_fn(item)
        if self.observe is not None:
            self.observe(ids)
        self._window.append(_Entry(index=self._next_index, item=item,
                                   ids=ids))
        self._next_index += 1

    def _stage_cost(self, entry: _Entry) -> tuple:
        """(bytes, fetch seconds) to background-stage one batch."""
        unique = count_distinct(entry.ids)
        staged_bytes = unique * self.row_bytes
        if self.fetch_cost is not None:
            fetch_s = float(self.fetch_cost(entry.ids))
        else:
            fetch_s = staged_bytes / DEFAULT_FETCH_RATE
        return staged_bytes, fetch_s

    def _choose(self) -> int:
        """Window position to emit next (the scheduling decision)."""
        if not self.config.reorders or len(self._window) == 1:
            return 0
        depth = self.config.lookahead_depth
        if self._window[0].deferred >= depth - 1:
            return 0  # starvation bound: the oldest batch must run now
        classes = [self.classifier.classify(entry.ids, entry.index)
                   for entry in self._window]
        for entry, verdict in zip(self._window, classes):
            entry.score = verdict.score
        for position, verdict in enumerate(classes):
            if not verdict.hot:
                continue
            if position == 0:
                return 0
            # Everything older than the candidate is cold and must be
            # staging while it runs; respect the in-flight byte cap.
            inflight = self._inflight_bytes
            feasible = True
            for entry in self._window[:position]:
                if entry.staged:
                    continue
                staged_bytes, _fetch = self._stage_cost(entry)
                if inflight + staged_bytes \
                        > self.config.max_inflight_bytes:
                    feasible = False
                    break
                inflight += staged_bytes
            if feasible:
                return position
        return 0

    def pop(self) -> tuple:
        """Emit the next batch: ``(original_index, item)``.

        Staging, deferral accounting and the modeled timeline advance
        here; the caller just runs what comes out.
        """
        if not self._window:
            raise IndexError("pop from an empty prefetch window")
        choice = self._choose()
        if choice != 0:
            self.stats.reordered += 1
            for entry in self._window[:choice]:
                entry.deferred += 1
                if not entry.staged:
                    staged_bytes, fetch_s = self._stage_cost(entry)
                    entry.staged = True
                    entry.bytes = staged_bytes
                    entry.fetch_s = fetch_s
                    entry.issued_at_s = self._elapsed_s
                    self._inflight_bytes += staged_bytes
                    self.stats.staged += 1
                    self.stats.staged_bytes += staged_bytes
                    self.stats.fetch_seconds += fetch_s
        entry = self._window.pop(choice)
        self.stats.batches += 1
        if entry.staged:
            self.stats.cold += 1
            self._inflight_bytes -= entry.bytes
            hidden = min(entry.fetch_s,
                         self._elapsed_s - entry.issued_at_s)
            self.stats.hidden_seconds += hidden
            self.records.append(PrefetchRecord(
                index=entry.index, score=entry.score,
                deferred=entry.deferred, bytes=entry.bytes,
                fetch_s=entry.fetch_s, hidden_s=hidden,
                exposed_s=max(0.0, entry.fetch_s - hidden)))
        else:
            self.stats.hot += 1
        self._elapsed_s += self.step_seconds
        return entry.index, entry.item

    def schedule(self, items):
        """Reorder a batch stream; yields ``(original_index, item)``.

        The window fills to ``lookahead_depth`` before the first
        emission and drains at the end; with ``lookahead_depth=1`` or
        the ``fifo`` policy this is the identity schedule.
        """
        for item in items:
            self.push(item)
            while len(self._window) >= self.config.lookahead_depth:
                yield self.pop()
        while self._window:
            yield self.pop()

    def plan(self, batches) -> list:
        """The emission order for a batch list, as original indices.

        The pure-reorder view of :meth:`schedule` — what determinism
        tests byte-compare.
        """
        return [index for index, _item in self.schedule(list(batches))]


def choose_deadline_aware(classes, estimates, deadlines, start_s: float,
                          lookahead_depth: int, deferred,
                          reorders: bool = True) -> int:
    """Serving-side window choice: hot-first, never past a deadline.

    Picks the window position to serve next.  A hot batch may jump
    ahead of colder, older batches only if every batch it defers still
    completes before its deadline afterwards — reordering must never
    *create* an SLO miss the FIFO order would not have had.

    :param classes: per-window-position :class:`BatchClass` verdicts.
    :param estimates: per-position modeled service seconds.
    :param deadlines: per-position completion deadlines (absolute
        modeled time, e.g. oldest arrival + latency budget).
    :param start_s: when the server would begin the chosen batch.
    :param lookahead_depth: the starvation bound — position 0 is
        forced once it has been deferred ``lookahead_depth - 1`` times.
    :param deferred: per-position deferral counts so far.
    """
    if not reorders or len(classes) <= 1:
        return 0
    if deferred[0] >= lookahead_depth - 1:
        return 0
    for position, verdict in enumerate(classes):
        if not verdict.hot:
            continue
        if position == 0:
            return 0
        cursor = start_s + estimates[position]
        feasible = True
        for older in range(position):
            if cursor + estimates[older] > deadlines[older]:
                feasible = False
                break
            cursor += estimates[older]
        if feasible:
            return position
    return 0
