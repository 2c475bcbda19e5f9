"""Per-stage instrumentation shared by every layer of the pipeline.

:class:`~repro.service.AnalysisSession` drives the three stages of
:mod:`repro.pipeline.stages` (filter → DPI → check) itself and keeps one
:class:`StageStats` per stage: records in/out, wall time, chunk count
and peak buffered items — the uniform instrumentation record every layer
reports through ``ExperimentAggregate`` and ``rtc-compliance
pipeline-stats``.

Dispatch is *chunked*: the session hands each stage a bounded batch of
at most :data:`repro.packets.batch.DEFAULT_CHUNK_SIZE` records per
Python call instead of one record at a time, which amortizes the
per-record call overhead.  Chunking never changes what a stage
computes — only how often it is called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable


@dataclass
class StageStats:
    """Uniform instrumentation record for one pipeline stage.

    ``peak_buffered`` is the high-water mark of items the stage held
    after a ``process_chunk`` or ``flush`` call — the number a bounded-memory deployment
    has to budget for, and the first thing to look at when a streaming
    run's footprint is not flat.
    """

    name: str
    records_in: int = 0
    records_out: int = 0
    wall_seconds: float = 0.0
    peak_buffered: int = 0
    #: ``process_chunk`` calls.
    chunks: int = 0

    def merge(self, other: "StageStats") -> None:
        """Accumulate a same-named stage's counters (cells of one matrix)."""
        self.records_in += other.records_in
        self.records_out += other.records_out
        self.wall_seconds += other.wall_seconds
        self.peak_buffered = max(self.peak_buffered, other.peak_buffered)
        self.chunks += other.chunks

    def snapshot(self) -> "StageStats":
        """An independent copy of the counters as they stand right now.

        Mid-stream observers (``rtc-compliance serve``'s ``/stats``
        endpoint, the session snapshot) read through this so the live
        counters are never shared with — or mutated under — a consumer.
        """
        return StageStats(
            name=self.name,
            records_in=self.records_in,
            records_out=self.records_out,
            wall_seconds=self.wall_seconds,
            peak_buffered=self.peak_buffered,
            chunks=self.chunks,
        )

    def to_json(self) -> Dict[str, object]:
        """The stable wire schema shared by every ``StageStats`` consumer.

        ``rtc-compliance pipeline-stats --json``, the service's
        ``/sessions/<id>/stats`` endpoint, and the SSE ``snapshot`` events
        all emit exactly this shape; extending it is fine, renaming or
        removing keys is a breaking schema change.
        """
        return {
            "name": self.name,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "wall_seconds": self.wall_seconds,
            "peak_buffered": self.peak_buffered,
            "chunks": self.chunks,
        }


def merge_stage_stats(
    into: Dict[str, StageStats], stats: Iterable[StageStats]
) -> Dict[str, StageStats]:
    """Fold per-run stage stats into a name-keyed accumulator (in place)."""
    for stat in stats:
        existing = into.get(stat.name)
        if existing is None:
            into[stat.name] = stat.snapshot()
        else:
            existing.merge(stat)
    return into
