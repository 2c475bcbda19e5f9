"""The three stage adapters :class:`~repro.service.AnalysisSession` drives.

Each adapter owns exactly one layer object — the online filter, a DPI
stream session, a checker stream — and gives it the shape the session
calls: ``process_chunk`` for a bounded batch, ``flush`` at close, and
(filter and DPI only) ``evict`` on an eviction sweep, plus ``buffered``
for the session's high-water mark.  Every call the session times is
defined on the adapter's own class, so a tracer can wrap it there.
The layers themselves never learn about the session, and the batch
entry points (``TwoStageFilter.apply``, ``DpiEngine.analyze_records``,
``ComplianceChecker.check``) stay the single source of truth for what
each transformation means: every adapter here drives the same
implementation those batch calls drive.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.checker import CheckerStream, ComplianceChecker
from repro.core.verdict import MessageVerdict
from repro.dpi.engine import DpiEngine, DpiStreamSession
from repro.dpi.messages import DatagramAnalysis
from repro.filtering.pipeline import FilterResult, TwoStageFilter
from repro.packets.packet import PacketRecord

IndexedVerdict = Tuple[int, MessageVerdict]


class FilterStage:
    """Two-stage unrelated-traffic filtering (§3.2), the optional first stage.

    Keep/drop decisions are provisional until the capture ends (see
    :mod:`repro.filtering.online`), so this stage emits nothing from
    ``process_chunk`` and releases every kept record, in timestamp order,
    at flush.  After flush the full :class:`FilterResult` — Table 1
    accounting included — is available as :attr:`result`.
    """

    name = "filter"

    def __init__(self, filter_: TwoStageFilter):
        self._online = filter_.online()
        self.result: Optional[FilterResult] = None

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
        early is certain removal, and that depends on the call window,
        not on *watermark*.  Kept-looking streams keep buffering until
        flush.
        """
        self._online.evict()
        return ()

    def buffered(self) -> int:
        return self._online.buffered_packets


class DpiStage:
    """Per-datagram two-stage DPI (§4.1).

    Buffers records per stream (validation context is stream-scoped) and
    emits every :class:`DatagramAnalysis` at flush, in timestamp order.
    With ``idle_gap`` set, :meth:`evict` also finishes flows idle longer
    than the gap (capture-seconds) before flush; a flow that resumes
    after eviction restarts without the evicted context.

    Every emitted analysis is kept in :attr:`analyses`, and
    :attr:`emission_log` holds, per analysis, the ``(timestamp, stream
    serial, position in stream, message count)`` tuple: the total order
    the batch flush emits in, so a consumer that received analyses out
    of order (from evictions) restores exact batch order with one sort.
    """

    name = "dpi"

    def __init__(self, engine: DpiEngine, idle_gap: Optional[float] = None):
        self._session: DpiStreamSession = engine.stream_session()
        self._idle_gap = idle_gap
        #: Every analysis emitted so far, in emission order.
        self.analyses: List[DatagramAnalysis] = []
        #: ``(timestamp, serial, position, message_count)`` per entry of
        #: :attr:`analyses`.
        self.emission_log: List[Tuple[float, int, int, int]] = []
        self._positions: Dict[int, int] = {}

    def _log(self, analyses: List[DatagramAnalysis]) -> List[DatagramAnalysis]:
        self.analyses.extend(analyses)
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

    def process_chunk(self, items: Sequence[PacketRecord]) -> List[DatagramAnalysis]:
        self._session.feed_many(items)
        return []

    def flush(self) -> Iterable[DatagramAnalysis]:
        return self._log(self._session.flush())

    def evict(self, watermark: float) -> Iterable[DatagramAnalysis]:
        if self._idle_gap is None:
            return ()
        return self._log(self._session.evict_idle(watermark, self._idle_gap))

    def buffered(self) -> int:
        return self._session.buffered

    def stats(self):
        return self._session.stats()


class CheckStage:
    """Five-criterion compliance checking (§4.2), the last stage.

    Emits ``(global_message_index, verdict)`` pairs — everything except
    STUN/TURN immediately, the deferred STUN verdicts at flush.  Sorting
    the collected pairs by index reproduces ``ComplianceChecker.check``'s
    output order exactly (the indices number messages in analysis order).
    """

    name = "check"

    def __init__(self, checker: ComplianceChecker):
        self._stream: CheckerStream = checker.stream()

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
