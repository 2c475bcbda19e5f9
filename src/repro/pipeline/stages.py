"""Concrete stages wiring the system's layers into the streaming core.

Each adapter owns exactly one layer object — the online filter, a DPI
stream session, a checker stream — and translates between the layer's
incremental API and the :class:`~repro.pipeline.stage.Stage` protocol.
The layers themselves never learn about the pipeline, and the batch
entry points (``TwoStageFilter.apply``, ``DpiEngine.analyze_records``,
``ComplianceChecker.check``) stay the single source of truth for what
each transformation means: every adapter here drives the same
implementation those batch calls drive.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.checker import CheckerStream, ComplianceChecker
from repro.core.verdict import MessageVerdict
from repro.dpi.engine import DpiEngine, DpiResult, DpiStreamSession
from repro.dpi.messages import DatagramAnalysis
from repro.filtering.online import OnlineTwoStageFilter
from repro.filtering.pipeline import FilterResult, TwoStageFilter
from repro.packets.packet import PacketRecord
from repro.pipeline.stage import Stage
from repro.streams.flow import FlowKey

IndexedVerdict = Tuple[int, MessageVerdict]


class FilterStage(Stage):
    """Two-stage unrelated-traffic filtering as a pipeline stage.

    Keep/drop decisions are provisional until the capture ends (see
    :mod:`repro.filtering.online`), so this stage emits nothing from
    ``process`` and releases every kept record, in timestamp order, at
    flush.  After flush the full :class:`FilterResult` — Table 1
    accounting included — is available as :attr:`result`.
    """

    name = "filter"

    def __init__(
        self,
        filter_: Optional[TwoStageFilter] = None,
        low_memory: bool = False,
        online: Optional["OnlineTwoStageFilter"] = None,
    ):
        if online is None:
            if filter_ is None:
                raise ValueError("FilterStage needs a filter_ or an online session")
            online = filter_.online(low_memory=low_memory)
        self._online = online
        self.result: Optional[FilterResult] = None

    def process(self, item: PacketRecord) -> Iterable[PacketRecord]:
        self._online.observe(item)
        return ()

    def process_chunk(self, items: Sequence[PacketRecord]) -> List[PacketRecord]:
        observe = self._online.observe
        for item in items:
            observe(item)
        return []

    def flush(self) -> Iterable[PacketRecord]:
        self.result = self._online.finalize()
        return self.result.kept_records

    def evict(self, watermark: float) -> Iterable[PacketRecord]:
        """Drain doomed streams' payloads; never emits records.

        Keep/drop is provisional until the capture ends (a later record
        can revoke a keep), so the only thing the filter can finalize
        early is certain removal — exactly the ``low_memory`` drain, run
        on demand.  Kept-looking streams keep buffering until flush.
        """
        self._online.evict(watermark)
        return ()

    def buffered(self) -> int:
        return self._online.buffered_packets


class DpiStage(Stage):
    """Per-datagram DPI as a pipeline stage.

    Buffers records per stream (validation context is stream-scoped) and
    emits every :class:`DatagramAnalysis`, in timestamp order, at flush.
    With ``collect=True`` (the batch adapters' mode) the analyses are
    additionally retained so :meth:`result` can package them as a
    ``DpiResult``; pure-streaming consumers pass ``collect=False`` and
    read only the per-session :meth:`stats`.

    Session mode adds two opt-ins the run-to-exhaustion adapters never
    use.  ``track_order=True`` records, per emitted analysis, the
    ``(timestamp, stream serial, position in stream, message count)``
    tuple (:attr:`emission_log`) — the total order the batch flush would
    have emitted in, so a consumer receiving analyses out of order (from
    evictions) can restore exact batch verdict order with one sort.
    Eviction itself comes in two flavors: :meth:`set_flow_deadlines`
    arms exact per-flow finalization (finish a flow the moment the
    watermark passes its known last record — provably lossless), while
    ``idle_gap`` arms the heuristic policy for open-ended live feeds
    (finish flows idle longer than the gap; a flow that resumes after
    eviction restarts without the evicted context).
    """

    name = "dpi"

    def __init__(
        self,
        engine: DpiEngine,
        collect: bool = True,
        track_order: bool = False,
        idle_gap: Optional[float] = None,
    ):
        self._session: DpiStreamSession = engine.stream_session()
        self._collect = collect
        self._collected: List[DatagramAnalysis] = []
        self._analyses: Optional[List[DatagramAnalysis]] = None
        self._track_order = track_order
        self._idle_gap = idle_gap
        self._deadlines: Optional[Dict[FlowKey, float]] = None
        #: Min-heap of ``(deadline, serial, key)``, one entry per open
        #: stream with a deadline, so an eviction touches only due flows.
        self._due: List[Tuple[float, int, FlowKey]] = []
        #: ``(timestamp, serial, position, message_count)`` per emitted
        #: analysis, in emission order; only populated with track_order.
        self.emission_log: List[Tuple[float, int, int, int]] = []
        self._positions: Dict[int, int] = {}

    def set_flow_deadlines(self, deadlines: Dict[FlowKey, float]) -> None:
        """Arm exact eviction: finish each flow once *watermark* passes
        its deadline (the flow's last record timestamp, known ahead of a
        drain over fully-materialized input).  Overrides ``idle_gap``."""
        self._deadlines = dict(deadlines)
        self._due = []
        for key in self._session.open_keys():
            self._arm(key)

    def _arm(self, key: FlowKey) -> None:
        """Queue the stream just opened under *key* for deadline eviction."""
        deadline = self._deadlines.get(key)
        if deadline is not None:
            heappush(self._due, (deadline, self._session.serial(key), key))

    def _log(self, analyses: List[DatagramAnalysis]) -> List[DatagramAnalysis]:
        if self._collect:
            self._collected.extend(analyses)
        if self._track_order:
            for analysis in analyses:
                serial = self._session.serial(analysis.record.flow_key)
                assert serial is not None
                position = self._positions.get(serial, 0)
                self._positions[serial] = position + 1
                self.emission_log.append(
                    (
                        analysis.record.timestamp,
                        serial,
                        position,
                        len(analysis.messages),
                    )
                )
        return analyses

    def process(self, item: PacketRecord) -> Iterable[DatagramAnalysis]:
        self.process_chunk((item,))
        return ()

    def process_chunk(self, items: Sequence[PacketRecord]) -> List[DatagramAnalysis]:
        if self._deadlines is None:
            self._session.feed_many(items)
            return []
        feed = self._session.feed
        for item in items:
            if feed(item):
                self._arm(item.flow_key)
        return []

    def flush(self) -> Iterable[DatagramAnalysis]:
        analyses = self._log(self._session.flush())
        if self._collect:
            # Everything emitted across the stage's lifetime — evictions
            # included, in emission order.  Without evictions this is
            # exactly the flush list (the historical behavior).
            self._analyses = self._collected
        return analyses

    def evict(self, watermark: float) -> Iterable[DatagramAnalysis]:
        if self._deadlines is not None:
            # Pop the due flows, then finish them in first-seen (serial)
            # order, the order of the open streams.
            due = self._due
            ready: List[Tuple[int, FlowKey]] = []
            while due and due[0][0] <= watermark:
                _, serial, key = heappop(due)
                ready.append((serial, key))
            ready.sort()
            analyses: List[DatagramAnalysis] = []
            for _, key in ready:
                analyses.extend(self._session.finish_stream(key))
            return self._log(analyses)
        if self._idle_gap is not None:
            return self._log(self._session.evict_idle(watermark, self._idle_gap))
        return ()

    def buffered(self) -> int:
        return self._session.buffered

    def stats(self):
        return self._session.stats()

    def result(self) -> DpiResult:
        """The flushed analyses as a batch-shaped ``DpiResult``."""
        if self._analyses is None:
            raise RuntimeError("result() requires collect=True and a flush")
        return DpiResult(analyses=self._analyses, stats=self._session.stats())


class CheckStage(Stage):
    """Compliance checking as a pipeline stage.

    Emits ``(global_message_index, verdict)`` pairs — everything except
    STUN/TURN immediately, the deferred STUN verdicts at flush.  Sorting
    the collected pairs by index reproduces ``ComplianceChecker.check``'s
    output order exactly (the indices number messages in analysis order).
    """

    name = "check"

    def __init__(self, checker: ComplianceChecker):
        self._stream: CheckerStream = checker.stream()

    def process(self, item: DatagramAnalysis) -> Iterable[IndexedVerdict]:
        return self._stream.feed(item.messages)

    def process_chunk(self, items: Sequence[DatagramAnalysis]) -> List[IndexedVerdict]:
        out: List[IndexedVerdict] = []
        feed = self._stream.feed
        for item in items:
            out.extend(feed(item.messages))
        return out

    def flush(self) -> Iterable[IndexedVerdict]:
        return self._stream.flush()

    def buffered(self) -> int:
        return self._stream.deferred


def ordered_verdicts(indexed: Iterable[IndexedVerdict]) -> List[MessageVerdict]:
    """Restore batch verdict order from a pipeline's indexed emissions."""
    return [verdict for _, verdict in sorted(indexed, key=lambda pair: pair[0])]
