"""Session-oriented execution of the compliance pipeline.

:class:`AnalysisSession` is the long-running counterpart of
``run_cell_pipeline``: the same three layers (online filter → DPI stream
session → checker stream) behind an explicit lifecycle — ``feed`` records
as they arrive, ``snapshot`` the live instrumentation at any point, and
``close`` once to obtain the exact artifacts the batch adapter returns.
Batch execution *is* a session now (``run_cell_pipeline`` feeds one and
closes it), so there is a single code path to keep bit-identical.

The hard part of living past the end of a capture is that two of the
layers are deliberately lazy: keep/drop decisions are provisional until
the capture ends (:mod:`repro.filtering.online`), and verdict order plus
the deferred STUN context are only settled once every analysis exists.
The session therefore splits the pipeline in two:

* a **front** pipeline holding the filter, fed live; the only thing it
  can finalize early is certain removal, so eviction sweeps drain doomed
  streams' payloads (bounding memory) without touching any provisional
  decision;
* a **back** pipeline (DPI → checker), fed at ``close`` in the filtered
  configuration or live when no window/filter is configured.

During the close drain the session knows every kept record, so each
DPI flow gets an exact deadline — its last record's timestamp — and is
finalized the moment the drain watermark passes it.  That eviction is
provably lossless: no later record can belong to an already-deadlined
flow.  Analyses therefore leave the DPI stage out of batch order, and
the stage's emission log (``(timestamp, serial, position)`` per
analysis — see :class:`repro.pipeline.stages.DpiStage`) is the total
order that restores the batch sequence with one sort; verdicts follow
their analyses by slicing the checker's index-ordered output per
analysis.  This is what makes a session with eviction enabled
bit-identical to the batch run — the contract the 18-cell parity tests
pin.

Watermarks are **capture time** (the largest record timestamp fed so
far), never wall-clock: eviction is a pure function of the record
stream, so replaying a capture evicts — and emits — identically on
every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.checker import ComplianceChecker
from repro.core.metrics import ComplianceSummary
from repro.core.verdict import MessageVerdict
from repro.dpi.engine import DpiEngine, DpiResult
from repro.dpi.messages import DatagramAnalysis
from repro.filtering.pipeline import FilterResult, TwoStageFilter
from repro.packets.packet import PacketRecord
from repro.pipeline.stage import DEFAULT_CHUNK_SIZE, Pipeline, StageStats
from repro.pipeline.stages import CheckStage, DpiStage, FilterStage
from repro.streams.timeline import CallWindow


@dataclass(frozen=True)
class EvictionPolicy:
    """When and how a session finalizes per-flow state early.

    ``mode``:

    * ``"none"`` — never evict; every layer buffers until ``close``.
      This is the batch adapter's mode: it reproduces the historical
      run-to-exhaustion instrumentation (e.g. the filter's high-water
      mark equals the record count) exactly.
    * ``"deadline"`` — bound memory without giving up bit-identity.
      While feeding, the filter drains streams already doomed to
      removal; at the close drain, DPI flows are finalized the moment
      the watermark passes their last record.  Exact by construction.
    * ``"idle"`` — everything ``"deadline"`` does, plus: in a
      *filterless* session (no call window) DPI flows idle longer than
      ``idle_gap`` capture-seconds are finalized mid-feed.  The one
      policy with a caveat: a flow that resumes after eviction restarts
      without the evicted context, so pick ``idle_gap`` larger than any
      real intra-flow gap if batch parity matters.

    ``sweep_interval`` throttles eviction sweeps: one sweep each time
    the watermark advances that many capture-seconds past the last one.
    """

    mode: str = "none"
    idle_gap: float = 5.0
    sweep_interval: float = 1.0

    def __post_init__(self):
        if self.mode not in ("none", "deadline", "idle"):
            raise ValueError(f"unknown eviction mode: {self.mode!r}")
        # NaN fails every comparison, so ``<= 0`` alone would pass it and
        # silently switch eviction off.
        for name in ("idle_gap", "sweep_interval"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")


@dataclass
class SessionSnapshot:
    """A point-in-time, detached view of a session's progress.

    Safe to take from another thread while the session keeps feeding:
    every ``StageStats`` is a copy, never the live counter record.
    """

    records_fed: int
    watermark: Optional[float]
    closed: bool
    #: Verdicts emitted so far (final and complete only after close).
    verdicts_ready: int
    stages: List[StageStats] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "records_fed": self.records_fed,
            "watermark": self.watermark,
            "closed": self.closed,
            "verdicts_ready": self.verdicts_ready,
            "stages": [stat.to_json() for stat in self.stages],
        }


@dataclass
class SessionResult:
    """Everything a closed session produced — the ``PipelineRun`` shape.

    ``filter_result`` is ``None`` for filterless sessions (pre-filtered
    input, e.g. ``run_streaming``).  ``verdicts`` are in exact batch
    order (``ComplianceChecker.check`` over the batch DPI output), and
    ``dpi.analyses`` in exact batch flush order, whatever eviction
    interleaving actually produced them.
    """

    filter_result: Optional[FilterResult]
    dpi: DpiResult
    verdicts: List[MessageVerdict]
    stage_stats: Dict[str, StageStats]

    def summary(self, app: str) -> ComplianceSummary:
        """The per-app compliance summary the reports aggregate."""
        return ComplianceSummary.from_verdicts(app, self.verdicts)


class AnalysisSession:
    """One live run of the compliance pipeline with an explicit lifecycle.

    With a ``window`` the session runs the full filtered pipeline and
    produces a :class:`FilterResult`; without one it assumes the caller
    feeds pre-filtered records and runs DPI → checker only.  ``engine``
    and ``checker`` default to fresh instances so sessions are isolated
    unless a caller deliberately shares them (a shared engine also
    accumulates lifetime ``DpiStats`` across sessions).  The default
    engine is the production one: batched columnar sweeps.
    """

    def __init__(
        self,
        window: Optional[CallWindow] = None,
        engine: Optional[DpiEngine] = None,
        checker: Optional[ComplianceChecker] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        eviction: EvictionPolicy = EvictionPolicy(),
    ):
        if engine is None:
            engine = DpiEngine(backend="columnar")
        if checker is None:
            checker = ComplianceChecker()
        self._eviction = eviction
        self._chunk_size = chunk_size
        self._dpi_stage = DpiStage(
            engine,
            collect=True,
            track_order=True,
            idle_gap=eviction.idle_gap if eviction.mode == "idle" else None,
        )
        self._back = Pipeline(
            [self._dpi_stage, CheckStage(checker)], chunk_size=chunk_size
        )
        self._filter_stage: Optional[FilterStage] = None
        self._front: Optional[Pipeline] = None
        if window is not None:
            self._filter_stage = FilterStage(TwoStageFilter(window))
            self._front = Pipeline([self._filter_stage], chunk_size=chunk_size)
        #: ``(global_message_index, verdict)`` pairs in emission order.
        self._indexed: List[Tuple[int, MessageVerdict]] = []
        self._records_fed = 0
        self._watermark: Optional[float] = None
        self._last_sweep: Optional[float] = None
        self._closed = False
        self._result: Optional[SessionResult] = None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def records_fed(self) -> int:
        return self._records_fed

    @property
    def watermark(self) -> Optional[float]:
        """Largest record timestamp fed so far (capture time, not wall)."""
        return self._watermark

    def feed(self, records: Iterable[PacketRecord]) -> None:
        """Push records through the live half of the pipeline.

        Accepts any iterable and consumes it incrementally in
        ``chunk_size`` batches — feeding one fully materialized capture
        dispatches exactly like ``Pipeline.run`` over the same source,
        which is what keeps the batch adapter's instrumentation
        identical to the historical single-pipeline run.  Eviction
        sweeps (per :class:`EvictionPolicy`) run between batches.
        """
        if self._closed:
            raise RuntimeError("feed() after close()")
        live = self._front if self._front is not None else self._back
        iterator = iter(records)
        while True:
            chunk = list(islice(iterator, self._chunk_size))
            if not chunk:
                break
            self._records_fed += len(chunk)
            high = max(record.timestamp for record in chunk)
            if self._watermark is None or high > self._watermark:
                self._watermark = high
            emitted = live.feed_chunk(chunk)
            if live is self._back:
                self._indexed.extend(emitted)
            self._maybe_sweep()

    def _maybe_sweep(self) -> None:
        if self._eviction.mode == "none" or self._watermark is None:
            return
        if (
            self._last_sweep is not None
            and self._watermark - self._last_sweep < self._eviction.sweep_interval
        ):
            return
        self._last_sweep = self._watermark
        if self._front is not None:
            # Doom-drain only: keep decisions stay provisional, so the
            # sweep releases payloads of certainly-removed streams and
            # emits nothing downstream.
            self._front.evict(self._watermark)
        elif self._eviction.mode == "idle":
            self._indexed.extend(self._back.evict(self._watermark))

    def snapshot(self) -> SessionSnapshot:
        """Detached copies of every stage's counters, front-to-back."""
        stages: List[StageStats] = []
        if self._front is not None:
            stages.extend(self._front.snapshot())
        stages.extend(self._back.snapshot())
        return SessionSnapshot(
            records_fed=self._records_fed,
            watermark=self._watermark,
            closed=self._closed,
            verdicts_ready=len(self._indexed),
            stages=stages,
        )

    def close(self) -> SessionResult:
        """Finalize everything and return the batch-shaped artifacts.

        Idempotent: the first call computes the result, later calls
        return the same object.
        """
        if self._closed:
            assert self._result is not None
            return self._result
        self._closed = True

        filter_result: Optional[FilterResult] = None
        if self._front is not None:
            kept = self._front.flush()
            assert self._filter_stage is not None
            filter_result = self._filter_stage.result
            if self._eviction.mode != "none":
                # Exact deadlines: the drain input is fully materialized,
                # so each flow's last record timestamp is known and a
                # flow is finalized the moment the watermark passes it.
                deadlines: Dict[object, float] = {}
                for record in kept:
                    if record.transport == "UDP":
                        deadlines[record.flow_key] = max(
                            deadlines.get(record.flow_key, record.timestamp),
                            record.timestamp,
                        )
                self._dpi_stage.set_flow_deadlines(deadlines)
                for start in range(0, len(kept), self._chunk_size):
                    chunk = kept[start:start + self._chunk_size]
                    self._indexed.extend(self._back.feed_chunk(chunk))
                    self._indexed.extend(
                        self._back.evict(chunk[-1].timestamp)
                    )
            else:
                for start in range(0, len(kept), self._chunk_size):
                    self._indexed.extend(
                        self._back.feed_chunk(kept[start:start + self._chunk_size])
                    )
        self._indexed.extend(self._back.flush())

        verdicts, analyses = self._restore_batch_order()
        dpi = DpiResult(analyses=analyses, stats=self._dpi_stage.stats())

        stage_stats: Dict[str, StageStats] = {}
        if self._front is not None:
            for stat in self._front.stats():
                stage_stats[stat.name] = stat
        for stat in self._back.stats():
            stage_stats[stat.name] = stat

        self._result = SessionResult(
            filter_result=filter_result,
            dpi=dpi,
            verdicts=verdicts,
            stage_stats=stage_stats,
        )
        return self._result

    def _restore_batch_order(
        self,
    ) -> Tuple[List[MessageVerdict], List[DatagramAnalysis]]:
        """Reorder emissions into the exact batch sequence.

        The DPI stage's emission log parallels its collected analyses
        1:1, and ``(timestamp, serial, position)`` is precisely the key
        the batch flush sorts by (streams concatenated in first-seen
        order, then a stable timestamp sort).  The checker's global
        indices number messages in emission order and each analysis's
        messages are consecutive, so index-sorting the verdicts and
        slicing per analysis pairs every verdict with its analysis; the
        slices then follow their analyses into batch order.
        """
        log = self._dpi_stage.emission_log
        collected = self._dpi_stage._analyses
        assert collected is not None and len(collected) == len(log)
        flat = [
            verdict
            for _, verdict in sorted(self._indexed, key=lambda pair: pair[0])
        ]
        starts: List[int] = []
        cursor = 0
        for entry in log:
            starts.append(cursor)
            cursor += entry[3]
        assert cursor == len(flat), "verdict/message count mismatch"
        order = sorted(range(len(log)), key=lambda i: log[i][:3])
        verdicts: List[MessageVerdict] = []
        for i in order:
            verdicts.extend(flat[starts[i]:starts[i] + log[i][3]])
        return verdicts, [collected[i] for i in order]
