"""Online mode of the two-stage filter: observe records, finalize at flush.

Filtering a live feed cannot re-scan a materialized record list the way
:meth:`TwoStageFilter.apply` historically did — the 3-tuple heuristic
needs every endpoint seen outside the call window and the local-IP
heuristic every pre-call IP pair.  :class:`OnlineTwoStageFilter` collects
both sets incrementally while grouping records into streams, then makes
the per-stream keep/drop decisions at :meth:`finalize` with exactly the
batch pipeline's logic, so the resulting :class:`FilterResult` — stage
accounting, kept-stream order, precision/recall — is bit-identical to a
batch run over the same records.  ``TwoStageFilter.apply`` is now a thin
loop over this class, so there is only one filtering implementation.

Keep/drop decisions are inherently provisional until the capture ends: a
stream that looks call-aligned can still be discarded at flush because
its 3-tuple shows up in post-call traffic.  What *can* be decided early
is doom — a stream whose first packet precedes the extended window, or
that stays active past it, can never survive stage 1.  With
``low_memory=True`` such streams are drained on the spot: their buffered
packets are released and only the counters the accounting and
ground-truth evaluation need are kept.  The resulting ``FilterResult``
has identical counts and evaluation but empty packet lists for drained
(always removed) streams, which is why the mode is opt-in.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.apps.background import DEFAULT_SNI_BLOCKLIST
from repro.filtering.heuristics import (
    DEFAULT_EXCLUDED_PORTS,
    EndpointTuple,
    LocalIpFilter,
    PortFilter,
    SniFilter,
    ThreeTupleFilter,
)
from repro.filtering.timespan import TimespanFilter
from repro.packets.packet import PacketRecord, TrafficCategory
from repro.streams.flow import FlowKey, Stream
from repro.streams.timeline import CallWindow


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


class OnlineTwoStageFilter:
    """Incremental front half of :class:`TwoStageFilter`.

    Call :meth:`observe` for every record in capture order, then
    :meth:`finalize` once to obtain the :class:`FilterResult`.
    """

    def __init__(
        self,
        window: CallWindow,
        sni_blocklist: Iterable[str] = DEFAULT_SNI_BLOCKLIST,
        excluded_ports: Iterable[int] = DEFAULT_EXCLUDED_PORTS,
        enabled_heuristics: Sequence[str] = ("3tuple", "sni", "local_ip", "port"),
        low_memory: bool = False,
    ):
        self._window = window
        self._sni_blocklist = frozenset(sni_blocklist)
        self._excluded_ports = frozenset(excluded_ports)
        self._enabled = tuple(enabled_heuristics)
        self._low_memory = low_memory
        self._streams: Dict[FlowKey, object] = {}
        # The 3-tuple and local-IP heuristics need *capture-global* state
        # (every endpoint outside the window, every pre-call IP pair),
        # collected as records arrive and consulted at finalize time.
        self._outside: Set[EndpointTuple] = set()
        self._precall: Set[FrozenSet[str]] = set()
        self._observed = 0
        # Packets held in undrained streams, kept current on every observe
        # and drain: the pipeline reads it after every chunk, so a re-sum
        # over all streams would make observing quadratic in open flows.
        self._buffered = 0
        self._finalized = False

    @property
    def observed(self) -> int:
        """Records seen so far."""
        return self._observed

    @property
    def buffered_packets(self) -> int:
        """Packets currently held in memory (drained streams count zero)."""
        return self._buffered

    def observe(self, record: PacketRecord) -> None:
        """Group one record and update the window-scoped heuristic state."""
        if self._finalized:
            raise RuntimeError("observe() after finalize()")
        self._observed += 1
        window = self._window
        ts = record.timestamp
        if not (window.extended_start <= ts <= window.extended_end):
            self._outside.add((record.src_ip, record.src_port, record.transport))
            self._outside.add((record.dst_ip, record.dst_port, record.transport))
        if ts < window.call_start:
            self._precall.add(frozenset((record.src_ip, record.dst_ip)))

        key = record.flow_key
        stream = self._streams.get(key)
        if stream is None:
            stream = Stream(key=key)
            self._streams[key] = stream
        stream.add(record)
        if isinstance(stream, Stream):
            self._buffered += 1
            if self._low_memory and self._doomed(stream):
                self._drain(key, stream)

    def _drain(self, key: FlowKey, stream: Stream) -> None:
        """Swap *stream* for its counter-only stand-in, releasing packets."""
        self._streams[key] = DrainedStream(stream)
        self._buffered -= len(stream.packets)

    def _doomed(self, stream: object) -> bool:
        """True when *stream* can never survive stage 1.

        A stream that started before the extended window or is still
        active after it is certain to be removed, so its payloads can be
        released early; only the counters the accounting needs survive.
        """
        if not isinstance(stream, Stream):
            return False
        window = self._window
        return (
            stream.first_timestamp < window.extended_start
            or stream.last_timestamp > window.extended_end
        )

    def evict(self, watermark: float = 0.0) -> int:
        """Drain every stream already doomed to removal; return the count.

        The on-demand counterpart of ``low_memory=True``'s per-record
        drain: a long-running session sweeps this periodically so junk
        flows (pre-call background, post-window chatter) never accumulate
        payloads, while provisional keep/drop decisions stay untouched —
        kept-looking streams must buffer until :meth:`finalize` because a
        later record can still revoke them.  *watermark* is accepted for
        signature uniformity with the stage protocol; doom is a function
        of the call window alone.  Accounting, evaluation, and kept
        output are unchanged by draining (pinned by the parity tests).
        """
        if self._finalized:
            return 0
        drained = 0
        for key, stream in self._streams.items():
            if self._doomed(stream):
                self._drain(key, stream)
                drained += 1
        return drained

    def finalize(self) -> "FilterResult":
        """Apply both filtering stages to everything observed."""
        from repro.filtering.pipeline import (
            FilterResult,
            StageCounts,
            _evaluate,
        )

        if self._finalized:
            raise RuntimeError("finalize() may only be called once")
        self._finalized = True

        streams = list(self._streams.values())
        for stream in streams:
            stream.sort()
        raw = StageCounts.of(streams)
        removed_by: Dict[str, List[Stream]] = {}

        stage1 = TimespanFilter(self._window)
        kept, removed = stage1.split(streams)
        removed_by[stage1.name] = removed
        stage1_counts = StageCounts.of(removed)

        heuristics = []
        if "3tuple" in self._enabled:
            heuristics.append(ThreeTupleFilter.from_outside_tuples(self._outside))
        if "sni" in self._enabled:
            heuristics.append(SniFilter(self._sni_blocklist))
        if "local_ip" in self._enabled:
            heuristics.append(LocalIpFilter.from_precall_pairs(self._precall))
        if "port" in self._enabled:
            heuristics.append(PortFilter(self._excluded_ports))

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
        return FilterResult(
            raw=raw,
            stage1_removed=stage1_counts,
            stage2_removed=stage2_counts,
            kept=StageCounts.of(surviving),
            kept_streams=surviving,
            removed_by=removed_by,
            evaluation=_evaluate(surviving, removed_by),
        )
