"""The filter stage: the two-stage filter fed chunk by chunk.

Filtering a live feed cannot re-scan a materialized record list: the
3-tuple heuristic needs every endpoint seen outside the call window and
the local-IP heuristic every pre-call IP pair.  :class:`FilterStage`
collects both sets incrementally while grouping records into streams,
then makes the per-stream keep/drop decisions at :meth:`FilterStage.flush`
with exactly the paper's logic.  ``TwoStageFilter.apply`` is one
``process_chunk`` plus ``flush`` on this class, so batch and session
filtering share one implementation and their :class:`FilterResult` —
stage accounting, kept-stream order, precision/recall — is identical.

Keep/drop decisions are inherently provisional until the capture ends: a
stream that looks call-aligned can still be discarded at flush because
its 3-tuple shows up in post-call traffic.  What *can* be decided early
is doom — a stream whose first packet precedes the extended window, or
that stays active past it, can never survive stage 1.
:meth:`FilterStage.evict` drains such streams: their buffered packets
are released and only the counters the accounting and ground-truth
evaluation need are kept.  The resulting ``FilterResult`` has identical
counts and evaluation but empty packet lists for drained (always
removed) streams.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.filtering.heuristics import EndpointTuple
from repro.filtering.pipeline import (
    FilterResult,
    StageCounts,
    TwoStageFilter,
    _evaluate,
)
from repro.filtering.timespan import TimespanFilter
from repro.packets.packet import PacketRecord, TrafficCategory
from repro.streams.flow import FlowKey, Stream


class DrainedStream:
    """Counter-only stand-in for a stream whose packets were released.

    Presents the slice of the :class:`Stream` interface the stage-1 split
    and the accounting read — transport, packet count, timespan — plus
    the ground-truth label counters the filter evaluation needs.  Only
    streams that are already certain to be removed are ever drained, so
    stage-2 heuristics (which inspect payloads) never see one.
    """

    __slots__ = ("key", "packets", "packet_count", "byte_count",
                 "_first_ts", "_last_ts", "truth_counts")

    def __init__(self, stream: Stream):
        self.key = stream.key
        self.packets: List[PacketRecord] = []
        self.packet_count = stream.packet_count
        self.byte_count = stream.byte_count
        self._first_ts = min(p.timestamp for p in stream.packets)
        self._last_ts = max(p.timestamp for p in stream.packets)
        rtc = non_rtc = 0
        for record in stream.packets:
            if record.truth is None:
                continue
            if record.truth.category is TrafficCategory.BACKGROUND:
                non_rtc += 1
            else:
                rtc += 1
        #: (rtc, non_rtc) labelled-packet counts for precision/recall.
        self.truth_counts: Tuple[int, int] = (rtc, non_rtc)

    @property
    def transport(self) -> str:
        return self.key[2]

    @property
    def first_timestamp(self) -> float:
        return self._first_ts

    @property
    def last_timestamp(self) -> float:
        return self._last_ts

    def add(self, record: PacketRecord) -> None:
        self.packet_count += 1
        self.byte_count += len(record.payload)
        ts = record.timestamp
        self._first_ts = min(self._first_ts, ts)
        self._last_ts = max(self._last_ts, ts)
        if record.truth is not None:
            rtc, non_rtc = self.truth_counts
            if record.truth.category is TrafficCategory.BACKGROUND:
                non_rtc += 1
            else:
                rtc += 1
            self.truth_counts = (rtc, non_rtc)

    def sort(self) -> None:
        pass

    def __len__(self) -> int:
        return self.packet_count


class FilterStage:
    """Two-stage unrelated-traffic filtering (§3.2), the optional first stage.

    :meth:`process_chunk` observes records and emits nothing, because
    keep/drop decisions are provisional until the capture ends.
    :meth:`flush` decides, releases every kept record in timestamp order
    and sets :attr:`result`, the full :class:`FilterResult` with the
    Table 1 accounting.
    """

    name = "filter"

    def __init__(self, filter_: TwoStageFilter):
        self._filter = filter_
        self._streams: Dict[FlowKey, object] = {}
        # The 3-tuple and local-IP heuristics need *capture-global* state
        # (every endpoint outside the window, every pre-call IP pair),
        # collected as records arrive and consulted at flush.
        self._outside: Set[EndpointTuple] = set()
        self._precall: Set[FrozenSet[str]] = set()
        # Packets held in undrained streams, kept current on every record
        # and drain: the session reads it after every chunk, so a re-sum
        # over all streams would make observing quadratic in open flows.
        self._buffered = 0
        self.result: Optional[FilterResult] = None

    def process_chunk(self, records: Iterable[PacketRecord]) -> List[PacketRecord]:
        """Group records and update the window-scoped heuristic state."""
        if self.result is not None:
            raise RuntimeError("process_chunk() after flush()")
        window = self._filter.window
        low, high = window.extended_start, window.extended_end
        call_start = window.call_start
        outside, precall, streams = self._outside, self._precall, self._streams
        for record in records:
            ts = record.timestamp
            if not (low <= ts <= high):
                outside.add((record.src_ip, record.src_port, record.transport))
                outside.add((record.dst_ip, record.dst_port, record.transport))
            if ts < call_start:
                precall.add(frozenset((record.src_ip, record.dst_ip)))
            key = record.flow_key
            stream = streams.get(key)
            if stream is None:
                stream = Stream(key=key)
                streams[key] = stream
            stream.add(record)
            if isinstance(stream, Stream):
                self._buffered += 1
        return []

    def evict(self, watermark: float) -> Tuple[()]:
        """Drain every stream already doomed to removal; emit nothing.

        A long-running session sweeps this periodically so junk flows
        (pre-call background, post-window chatter) never accumulate
        payloads, while provisional keep/drop decisions stay untouched —
        kept-looking streams must buffer until :meth:`flush` because a
        later record can still revoke them.  Doom is a function of the
        call window alone, so *watermark* is not read.  Accounting,
        evaluation, and kept output are unchanged by draining (pinned by
        the parity tests).
        """
        if self.result is not None:
            return ()
        window = self._filter.window
        for key, stream in self._streams.items():
            if isinstance(stream, Stream) and (
                stream.first_timestamp < window.extended_start
                or stream.last_timestamp > window.extended_end
            ):
                self._streams[key] = DrainedStream(stream)
                self._buffered -= len(stream.packets)
        return ()

    def flush(self) -> List[PacketRecord]:
        """Apply both filtering stages to everything observed.

        Returns the kept records in timestamp order; :attr:`result`
        holds the whole :class:`FilterResult`.
        """
        if self.result is not None:
            raise RuntimeError("flush() may only be called once")
        streams = list(self._streams.values())
        for stream in streams:
            stream.sort()
        raw = StageCounts.of(streams)
        removed_by: Dict[str, List[Stream]] = {}

        stage1 = TimespanFilter(self._filter.window)
        kept, removed = stage1.split(streams)
        removed_by[stage1.name] = removed
        stage1_counts = StageCounts.of(removed)

        heuristics = self._filter.stage2_heuristics(self._outside, self._precall)

        surviving: List[Stream] = []
        for stream in kept:
            verdict = None
            for heuristic in heuristics:
                if not heuristic.keeps(stream):
                    verdict = heuristic.name
                    break
            if verdict is None:
                surviving.append(stream)
            else:
                removed_by.setdefault(verdict, []).append(stream)

        stage2_counts = StageCounts.of(
            stream
            for name, streams_ in removed_by.items()
            if name != stage1.name
            for stream in streams_
        )
        self.result = FilterResult(
            raw=raw,
            stage1_removed=stage1_counts,
            stage2_removed=stage2_counts,
            kept=StageCounts.of(surviving),
            kept_streams=surviving,
            removed_by=removed_by,
            evaluation=_evaluate(surviving, removed_by),
        )
        return self.result.kept_records

    def buffered(self) -> int:
        """Packets currently held in memory (drained streams count zero)."""
        return self._buffered
