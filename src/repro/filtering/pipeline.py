"""The two-stage filtering pipeline and its accounting (paper §3.2, Table 1).

Stage 1 removes streams misaligned with the call window; stage 2 applies the
four protocol-aware heuristics to what remains.  The result object tracks,
per transport, how many streams/packets each stage removed — exactly the
columns of the paper's Table 1 — and, when ground-truth labels are present,
the filter's precision and recall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.filtering.heuristics import (
    EndpointTuple,
    LocalIpFilter,
    PortFilter,
    SniFilter,
    ThreeTupleFilter,
)
from repro.filtering.timespan import TimespanFilter
from repro.packets.packet import PacketRecord
from repro.streams.flow import Stream
from repro.streams.timeline import CallWindow


@dataclass(frozen=True)
class StageCounts:
    """Streams and packets attributed to one pipeline stage, per transport."""

    udp_streams: int = 0
    udp_packets: int = 0
    tcp_streams: int = 0
    tcp_packets: int = 0

    @classmethod
    def of(cls, streams: Iterable[Stream]) -> "StageCounts":
        udp_s = udp_p = tcp_s = tcp_p = 0
        for stream in streams:
            if stream.transport == "UDP":
                udp_s += 1
                udp_p += stream.packet_count
            else:
                tcp_s += 1
                tcp_p += stream.packet_count
        return cls(udp_s, udp_p, tcp_s, tcp_p)


@dataclass(frozen=True)
class FilterEvaluation:
    """Ground-truth-based quality metrics (only for labelled traces)."""

    kept_rtc: int
    kept_non_rtc: int
    removed_rtc: int
    removed_non_rtc: int

    @property
    def precision(self) -> float:
        kept = self.kept_rtc + self.kept_non_rtc
        return self.kept_rtc / kept if kept else 1.0

    @property
    def recall(self) -> float:
        total_rtc = self.kept_rtc + self.removed_rtc
        return self.kept_rtc / total_rtc if total_rtc else 1.0


@dataclass
class FilterResult:
    """Everything the pipeline decided, with per-stage accounting."""

    raw: StageCounts
    stage1_removed: StageCounts
    stage2_removed: StageCounts
    kept: StageCounts
    kept_streams: List[Stream]
    removed_by: Dict[str, List[Stream]]
    evaluation: Optional[FilterEvaluation] = None
    _kept_records: Optional[List[PacketRecord]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def kept_records(self) -> List[PacketRecord]:
        """Every kept packet in timestamp order (computed once, then cached).

        This sits on the hot path between filtering and DPI and is read
        from ~10 call sites; re-concatenating and re-sorting the full
        packet list on every access was pure waste.  Callers share the
        cached list, so treat it as read-only.
        """
        if self._kept_records is None:
            records: List[PacketRecord] = []
            for stream in self.kept_streams:
                records.extend(stream.packets)
            records.sort(key=lambda r: r.timestamp)
            self._kept_records = records
        return self._kept_records

    def stage2_by_heuristic(self) -> Dict[str, StageCounts]:
        return {
            name: StageCounts.of(streams)
            for name, streams in self.removed_by.items()
            if name != TimespanFilter.name
        }


class TwoStageFilter:
    """The paper's full filtering pipeline.

    Individual stage-2 heuristics can be disabled via ``enabled_heuristics``
    for ablation studies.
    """

    ALL_HEURISTICS = ("3tuple", "sni", "local_ip", "port")

    def __init__(
        self,
        window: CallWindow,
        enabled_heuristics: Sequence[str] = ALL_HEURISTICS,
    ):
        unknown = set(enabled_heuristics) - set(self.ALL_HEURISTICS)
        if unknown:
            raise ValueError(f"unknown heuristics {sorted(unknown)}")
        self._window = window
        self._enabled = tuple(enabled_heuristics)

    @property
    def window(self) -> CallWindow:
        return self._window

    def apply(self, records: Iterable[PacketRecord]) -> FilterResult:
        """Batch entry point: one chunk through a :class:`FilterStage`.

        Batch and session callers share a single implementation (see
        :mod:`repro.filtering.online`), so their results are identical by
        construction rather than by parallel maintenance.
        """
        from repro.filtering.online import FilterStage

        stage = FilterStage(self)
        stage.process_chunk(records)
        stage.flush()
        return stage.result

    def stage2_heuristics(
        self,
        outside: Iterable[EndpointTuple],
        precall: Iterable[FrozenSet[str]],
    ) -> List[object]:
        """The enabled stage-2 heuristics, in the paper's order.

        *outside* holds every endpoint seen outside the extended call
        window (the 3-tuple rule) and *precall* every IP pair seen before
        the call (the local-IP rule).
        """
        heuristics: List[object] = []
        if "3tuple" in self._enabled:
            heuristics.append(ThreeTupleFilter(outside))
        if "sni" in self._enabled:
            heuristics.append(SniFilter())
        if "local_ip" in self._enabled:
            heuristics.append(LocalIpFilter(precall))
        if "port" in self._enabled:
            heuristics.append(PortFilter())
        return heuristics


def _evaluate(
    kept_streams: Sequence[Stream], removed_by: Dict[str, List[Stream]]
) -> Optional[FilterEvaluation]:
    from repro.packets.packet import TrafficCategory

    def label_counts(streams: Iterable[Stream]):
        # Signaling is call-related: the paper's pipeline keeps in-call
        # signaling too (the "RTC TCP" column of Table 1), so only true
        # background counts against precision.
        rtc = non_rtc = labelled = 0
        for stream in streams:
            counts = getattr(stream, "truth_counts", None)
            if counts is not None:
                # Drained stream (FilterStage.evict): packets
                # were released, but the label counters were kept.
                rtc += counts[0]
                non_rtc += counts[1]
                labelled += counts[0] + counts[1]
                continue
            for record in stream.packets:
                if record.truth is None:
                    continue
                labelled += 1
                if record.truth.category is TrafficCategory.BACKGROUND:
                    non_rtc += 1
                else:
                    rtc += 1
        return rtc, non_rtc, labelled

    kept_rtc, kept_non, kept_labelled = label_counts(kept_streams)
    removed_rtc, removed_non, removed_labelled = label_counts(
        stream for streams in removed_by.values() for stream in streams
    )
    if kept_labelled + removed_labelled == 0:
        return None
    return FilterEvaluation(
        kept_rtc=kept_rtc,
        kept_non_rtc=kept_non,
        removed_rtc=removed_rtc,
        removed_non_rtc=removed_non,
    )
