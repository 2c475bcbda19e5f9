"""Session-oriented execution of the compliance pipeline.

:class:`AnalysisSession` is the long-running counterpart of
``run_cell_pipeline``: the same three stages (filter → DPI → check)
behind an explicit lifecycle — ``feed`` records
as they arrive, ``snapshot`` the live instrumentation at any point, and
``close`` once to obtain the exact artifacts the batch adapter returns.
Batch execution *is* a session now (``run_cell_pipeline`` feeds one and
closes it), so there is a single code path to keep bit-identical.

The session drives the paper's fixed chain itself: the optional
:class:`~repro.pipeline.stages.FilterStage` (§3.2), then
:class:`~repro.pipeline.stages.DpiStage` (§4.1), then
:class:`~repro.pipeline.stages.CheckStage` (§4.2), with one
:class:`~repro.pipeline.stage.StageStats` per stage.  Two of the layers
are deliberately lazy: keep/drop decisions are provisional until the
capture ends (:mod:`repro.filtering.online`), and verdict order plus the
deferred STUN context are only settled once every analysis exists.  So:

* with a filter, ``feed`` goes to the filter alone; an eviction sweep
  can only drain doomed streams' payloads without touching any
  provisional decision, and ``close`` hands the kept records to DPI and
  the analyses to the checker in one pass;
* without one, ``feed`` goes to DPI, and with idle eviction a sweep
  finalizes idle DPI flows and checks their analyses mid-feed.

Analyses finalized by a sweep leave DPI out of batch order.  The DPI
stage emits each analysis with its order key (``(timestamp, serial,
position, message count)`` — see :class:`repro.pipeline.stages.DpiStage`),
and the session keeps the analyses, in the order it hands them to the
checker, with their keys as four typed columns; the keys are the total
order that restores the batch sequence with one sort, and verdicts
follow their analyses by slicing the checker's index-ordered output per
analysis.
This is what makes every session bit-identical to the batch run (for
idle eviction, with an ``idle_gap`` above every intra-flow gap) — the
contract the parity tests pin.

Watermarks are **capture time** (the largest record timestamp fed so
far), never wall-clock: eviction is a pure function of the record
stream, so replaying a capture evicts — and emits — identically on
every run.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checker import ComplianceChecker, IndexedVerdict
from repro.core.metrics import ComplianceSummary
from repro.core.verdict import MessageVerdict
from repro.dpi.engine import ColumnarEngine, DpiEngine, DpiResult, OrderKey
from repro.dpi.messages import DatagramAnalysis
from repro.filtering.pipeline import FilterResult, TwoStageFilter
from repro.packets.batch import DEFAULT_CHUNK_SIZE
from repro.packets.packet import PacketRecord
from repro.pipeline.stage import StageStats
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
    * ``"idle"`` — sweep while feeding.  In a filtered session a sweep
      drains the filter's streams already doomed to removal; the
      verdicts are unchanged.  In a *filterless* session (no call
      window) it finalizes DPI flows idle longer than ``idle_gap``
      capture-seconds instead.  A flow that resumes after eviction
      restarts without the evicted context, so pick ``idle_gap`` larger
      than any real intra-flow gap if batch parity matters.

    ``sweep_interval`` throttles eviction sweeps: one sweep each time
    the watermark advances that many capture-seconds past the last one.
    """

    mode: str = "none"
    idle_gap: float = 5.0
    sweep_interval: float = 1.0

    def __post_init__(self):
        if self.mode not in ("none", "idle"):
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
    """Everything a closed session produced; ``run_cell_pipeline`` returns it.

    ``filter_result`` is ``None`` for filterless sessions (pre-filtered
    input, e.g. the ``pcap`` command).  ``verdicts`` are in exact batch
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
    defaults to a fresh production :class:`ColumnarEngine` and
    ``checker`` to a fresh checker, so sessions are isolated unless a
    caller deliberately shares them (a shared engine's ``columnar_stats``
    then add up across sessions; each session's ``DpiStats`` stay its
    own).  Pass a :class:`DpiEngine` to run the reference instead.
    """

    def __init__(
        self,
        window: Optional[CallWindow] = None,
        engine: Optional[DpiEngine] = None,
        checker: Optional[ComplianceChecker] = None,
        eviction: EvictionPolicy = EvictionPolicy(),
    ):
        if engine is None:
            engine = ColumnarEngine()
        if checker is None:
            checker = ComplianceChecker()
        self._eviction = eviction
        self._filter: Optional[FilterStage] = None
        if window is not None:
            self._filter = FilterStage(TwoStageFilter(window))
        self._dpi = DpiStage(
            engine, idle_gap=eviction.idle_gap if eviction.mode == "idle" else None
        )
        self._check = CheckStage(checker)
        #: One counter record per stage, in chain order.
        self._stats: Dict[str, StageStats] = {
            stage.name: StageStats(name=stage.name)
            for stage in (self._filter, self._dpi, self._check)
            if stage is not None
        }
        #: Every analysis DPI emitted, in the order the checker got them,
        #: and the order key of each as columns (timestamp, serial,
        #: position, message count): four machine words per analysis
        #: instead of a tuple of boxed numbers.
        self._analyses: List[DatagramAnalysis] = []
        self._times = array("d")
        self._serials = array("q")
        self._positions = array("q")
        self._counts = array("q")
        #: Verdicts in emission order, and the global message index of each.
        self._verdicts: List[MessageVerdict] = []
        self._indices = array("q")
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
        """Push records into the first stage.

        Accepts any iterable and consumes it incrementally in
        ``DEFAULT_CHUNK_SIZE`` batches, so a generator source is never
        materialized in full.  Eviction sweeps (per
        :class:`EvictionPolicy`) run between batches.
        """
        if self._closed:
            raise RuntimeError("feed() after close()")
        iterator = iter(records)
        while True:
            chunk = list(islice(iterator, DEFAULT_CHUNK_SIZE))
            if not chunk:
                break
            self._records_fed += len(chunk)
            high = max(record.timestamp for record in chunk)
            if self._watermark is None or high > self._watermark:
                self._watermark = high
            # Neither stage emits from a chunk: keep/drop is provisional
            # until close, and DPI waits for each stream to finish.
            self._process(
                self._dpi if self._filter is None else self._filter, chunk
            )
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
        if self._filter is not None:
            # Doom-drain only: keep decisions stay provisional, so the
            # sweep releases payloads of certainly-removed streams and
            # emits nothing downstream.
            self._evict(self._filter, self._watermark)
        else:
            self._check_all(self._evict(self._dpi, self._watermark))

    # The three calls below time one stage call each into that stage's
    # StageStats.  They look the method up on the stage at call time, so
    # a wrapper installed on the stage class is timed with it.

    def _process(self, stage, items: Sequence) -> list:
        stats = self._stats[stage.name]
        start = time.perf_counter()
        out = stage.process_chunk(items)
        stats.wall_seconds += time.perf_counter() - start
        stats.chunks += 1
        stats.records_in += len(items)
        stats.records_out += len(out)
        stats.peak_buffered = max(stats.peak_buffered, stage.buffered())
        return out

    def _evict(self, stage, watermark: float) -> list:
        stats = self._stats[stage.name]
        start = time.perf_counter()
        out = list(stage.evict(watermark))
        stats.wall_seconds += time.perf_counter() - start
        stats.records_out += len(out)
        return out

    def _flush(self, stage) -> list:
        stats = self._stats[stage.name]
        start = time.perf_counter()
        out = list(stage.flush())
        stats.wall_seconds += time.perf_counter() - start
        stats.records_out += len(out)
        stats.peak_buffered = max(stats.peak_buffered, stage.buffered())
        return out

    def _check_all(self, emitted: List[Tuple[DatagramAnalysis, OrderKey]]) -> None:
        """Keep DPI's *emitted* pairs and check their analyses in
        ``DEFAULT_CHUNK_SIZE`` slices."""
        if not emitted:
            return
        analyses, keys = zip(*emitted)
        times, serials, positions, counts = zip(*keys)
        self._analyses.extend(analyses)
        self._times.extend(times)
        self._serials.extend(serials)
        self._positions.extend(positions)
        self._counts.extend(counts)
        size = DEFAULT_CHUNK_SIZE
        for start in range(0, len(analyses), size):
            self._collect(self._process(self._check, analyses[start:start + size]))

    def _collect(self, indexed: List[IndexedVerdict]) -> None:
        if indexed:
            indices, verdicts = zip(*indexed)
            self._indices.extend(indices)
            self._verdicts.extend(verdicts)

    def snapshot(self) -> SessionSnapshot:
        """Detached copies of every stage's counters, in chain order."""
        return SessionSnapshot(
            records_fed=self._records_fed,
            watermark=self._watermark,
            closed=self._closed,
            verdicts_ready=len(self._verdicts),
            stages=[stat.snapshot() for stat in self._stats.values()],
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
        if self._filter is not None:
            kept = self._flush(self._filter)
            filter_result = self._filter.result
            size = DEFAULT_CHUNK_SIZE
            for start in range(0, len(kept), size):
                self._process(self._dpi, kept[start:start + size])
        self._check_all(self._flush(self._dpi))
        self._collect(self._flush(self._check))

        verdicts, analyses = self._restore_batch_order()
        # The emission-order state is spent: the result holds the same
        # objects in batch order.
        self._analyses, self._verdicts = analyses, verdicts
        for column in (self._times, self._serials, self._positions,
                       self._counts, self._indices):
            del column[:]
        self._result = SessionResult(
            filter_result=filter_result,
            dpi=DpiResult(analyses=analyses, stats=self._dpi.stats()),
            verdicts=verdicts,
            stage_stats=dict(self._stats),
        )
        return self._result

    def _restore_batch_order(
        self,
    ) -> Tuple[List[MessageVerdict], List[DatagramAnalysis]]:
        """Reorder emissions into the exact batch sequence.

        The order-key columns parallel the kept analyses 1:1, and
        ``(timestamp, serial, position)`` is precisely the key the batch
        flush sorts by (streams concatenated in first-seen order, then a
        stable timestamp sort); serial and position are unique, so one
        lexsort over those three columns is that order.  The checker
        numbers messages in emission order, so analysis ``i``'s messages
        hold the global indices ``starts[i] .. starts[i] + counts[i]``;
        laying those runs out in batch order and mapping each index to
        its verdict (indices are unique, so one argsort) pairs every
        verdict with its analysis in batch order.
        """
        counts = np.frombuffer(self._counts, dtype=np.int64)
        indices = np.frombuffer(self._indices, dtype=np.int64)
        assert int(counts.sum()) == len(indices), "verdict/message count mismatch"
        order = np.lexsort((
            np.frombuffer(self._positions, dtype=np.int64),
            np.frombuffer(self._serials, dtype=np.int64),
            np.frombuffer(self._times, dtype=np.float64),
        ))
        starts = np.cumsum(counts) - counts
        run_lengths = counts[order]
        run_offsets = np.cumsum(run_lengths) - run_lengths
        wanted = np.arange(len(indices)) + np.repeat(
            starts[order] - run_offsets, run_lengths
        )
        slot_of_index = np.argsort(indices)
        collected, verdicts = self._analyses, self._verdicts
        return (
            [verdicts[i] for i in slot_of_index[wanted].tolist()],
            [collected[i] for i in order.tolist()],
        )
