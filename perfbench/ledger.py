"""Spans around layer entry points, and the per-layer time ledger.

The benchmark records spans from its own files only.
:meth:`Tracer.installed` wraps each layer's public entry points in this
process for one traced pass and restores them afterwards, so no program
file changes and an untraced pass runs the program exactly as shipped.

A span's self time is its duration minus the spans it encloses on the
same thread.  Per thread, the self times of all spans plus the unspanned
rest (``glue_s``) add up to that thread's wall time.
:func:`analyse` checks that sum, checks that ``glue_s`` is never
negative, and checks that the spans agree with the program's own
``StageStats`` and ``IngestStats``.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Tuple

from repro.packets.batch import BatchPcapReader, IngestStats
from repro.pipeline.stage import StageStats
from repro.pipeline.stages import CheckStage, DpiStage, FilterStage
from repro.service.ingest import BoundedQueue
from repro.service.session import AnalysisSession

#: Span name -> the ledger row its self time is booked to.
SPAN_ROWS = {
    "packets.index": "packets.index_s",
    "packets.decode": "packets.decode_s",
    "filtering.observe": "filtering.observe_s",
    "filtering.finalize": "filtering.finalize_s",
    "dpi.feed": "dpi.feed_s",
    "dpi.flush": "dpi.flush_s",
    "dpi.evict": "dpi.evict_s",
    "core.check": "core.check_s",
    # Feed and close minus the layer spans inside them: dispatch,
    # eviction sweeps and restoring batch order.
    "service.session": "service.session_self_s",
    "service.queue_get": "service.queue_wait_s",
    "service.queue_put": "service.queue_put_s",
}

#: ``StageStats`` name -> the spans that time the same calls.
STAGE_SPANS = {
    "filter": ("filtering.observe", "filtering.finalize"),
    "dpi": ("dpi.feed", "dpi.flush", "dpi.evict"),
    "check": ("core.check",),
}

#: Spans sit inside the pipeline's own timers, so they may fall short of
#: ``StageStats`` by the wrapper's cost, never exceed it beyond a clock tick.
STAGE_SLACK_S = 0.001
STAGE_SLACK_RATIO = 0.05
#: The span whose self time holds the pipeline's timers around each stage
#: call.  A thread that loses the CPU there, to the GIL's other holder or
#: to the OS, books the wait to ``StageStats`` but to no stage span.
STAGE_TIMER_SPAN = "service.session"


@dataclass
class ThreadTrace:
    """Span totals of one thread."""

    self_s: Dict[str, float] = field(default_factory=dict)
    total_s: Dict[str, float] = field(default_factory=dict)
    #: The part of each span's self time the thread spent off the CPU.
    self_wait_s: Dict[str, float] = field(default_factory=dict)
    #: Open spans: ``[name, start, seconds spent in enclosed spans,
    #: CPU start, CPU seconds spent in enclosed spans]``.
    stack: List[list] = field(default_factory=list)


class Tracer:
    """Aggregates span self times per thread, in memory."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
    ):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: Dict[int, ThreadTrace] = {}
        #: ``(IngestStats, indexed frames)`` of every capture opened.
        self.readers: List[Tuple[IngestStats, int]] = []
        #: Records the batch decoder handed out.
        self.decoded = 0

    def _thread(self) -> ThreadTrace:
        trace = getattr(self._local, "trace", None)
        if trace is None:
            trace = self._local.trace = ThreadTrace()
            with self._lock:
                self.threads[threading.get_ident()] = trace
        return trace

    def begin(self, name: str) -> None:
        self._thread().stack.append([name, self._clock(), 0.0, self._cpu_clock(), 0.0])

    def end(self) -> None:
        trace = self._thread()
        name, start, enclosed, cpu_start, cpu_enclosed = trace.stack.pop()
        duration = self._clock() - start
        cpu = self._cpu_clock() - cpu_start
        if trace.stack:
            trace.stack[-1][2] += duration
            trace.stack[-1][4] += cpu
        trace.self_s[name] = trace.self_s.get(name, 0.0) + duration - enclosed
        trace.total_s[name] = trace.total_s.get(name, 0.0) + duration
        trace.self_wait_s[name] = trace.self_wait_s.get(name, 0.0) + (
            duration - enclosed - (cpu - cpu_enclosed)
        )

    def wrap(self, name: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end()

        return traced

    def _wrap_open(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def traced(reader, *args, **kwargs):
            self.begin("packets.index")
            try:
                func(reader, *args, **kwargs)
            finally:
                self.end()
            with self._lock:
                self.readers.append((reader.stats, reader.frame_count))

        return traced

    def _wrap_chunks(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs) -> Iterator[list]:
            inner = func(*args, **kwargs)
            try:
                while True:
                    self.begin("packets.decode")
                    try:
                        batch = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end()
                    with self._lock:
                        self.decoded += len(batch)
                    yield batch
            finally:
                inner.close()

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced entry point for the duration of the block."""
        patches = [
            (BatchPcapReader, "__init__", self._wrap_open),
            (BatchPcapReader, "chunks", self._wrap_chunks),
            (FilterStage, "process_chunk", functools.partial(self.wrap, "filtering.observe")),
            (FilterStage, "flush", functools.partial(self.wrap, "filtering.finalize")),
            (DpiStage, "process_chunk", functools.partial(self.wrap, "dpi.feed")),
            (DpiStage, "flush", functools.partial(self.wrap, "dpi.flush")),
            (DpiStage, "evict", functools.partial(self.wrap, "dpi.evict")),
            (CheckStage, "process_chunk", functools.partial(self.wrap, "core.check")),
            (CheckStage, "flush", functools.partial(self.wrap, "core.check")),
            (AnalysisSession, "feed", functools.partial(self.wrap, "service.session")),
            (AnalysisSession, "close", functools.partial(self.wrap, "service.session")),
            (BoundedQueue, "get", functools.partial(self.wrap, "service.queue_get")),
            (BoundedQueue, "put", functools.partial(self.wrap, "service.queue_put")),
        ]
        originals = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
        try:
            for cls, name, make in patches:
                setattr(cls, name, make(cls.__dict__[name]))
            yield self
        finally:
            for cls, name, original in originals:
                setattr(cls, name, original)


def thread_ledger(wall_s: float, trace: ThreadTrace) -> Dict[str, float]:
    """Book one thread's span self times to ledger rows, plus ``glue_s``."""
    rows: Dict[str, float] = {}
    for name, seconds in trace.self_s.items():
        row = SPAN_ROWS[name]
        rows[row] = rows.get(row, 0.0) + seconds
    rows["glue_s"] = wall_s - math.fsum(trace.self_s.values())
    return rows


def ledger_problems(label: str, wall_s: float, rows: Mapping[str, float]) -> List[str]:
    """A thread's ledger must sum to its wall time with ``glue_s >= 0``."""
    problems = []
    if rows["glue_s"] < 0:
        problems.append(f"{label}: glue_s is negative ({rows['glue_s']:.6f}s)")
    total = math.fsum(rows.values())
    if abs(total - wall_s) > 1e-9 * max(1.0, wall_s):
        problems.append(f"{label}: ledger sums to {total:.6f}s, wall is {wall_s:.6f}s")
    return problems


def stage_problems(
    stage_stats: Mapping[str, StageStats], traces: Mapping[int, ThreadTrace]
) -> List[str]:
    """Stage spans must agree with the pipeline's ``StageStats``.

    The pipeline's timers may exceed the spans by the wrapper's cost plus
    the time the thread waited off the CPU between a timer and its span.
    """
    problems = []
    waited = math.fsum(
        trace.self_wait_s.get(STAGE_TIMER_SPAN, 0.0) for trace in traces.values()
    )
    for stage, spans in STAGE_SPANS.items():
        spanned = math.fsum(
            trace.total_s.get(span, 0.0) for trace in traces.values() for span in spans
        )
        stat = stage_stats.get(stage)
        measured = stat.wall_seconds if stat is not None else 0.0
        gap = measured - spanned
        allowed = STAGE_SLACK_S + STAGE_SLACK_RATIO * measured + max(waited, 0.0)
        if gap < -STAGE_SLACK_S or gap > allowed:
            problems.append(
                f"{stage}: spans total {spanned:.6f}s, StageStats {measured:.6f}s"
            )
    return problems


def ingest_problems(tracer: Tracer, fed: int) -> List[str]:
    """Decoder counts seen at the spans must agree with ``IngestStats``."""
    stats = IngestStats()
    indexed = 0
    for reader_stats, frames in tracer.readers:
        stats.merge(reader_stats)
        indexed += frames
    problems = []
    if stats.frames != indexed:
        problems.append(f"IngestStats.frames {stats.frames} != {indexed} indexed")
    if stats.records != tracer.decoded:
        problems.append(f"IngestStats.records {stats.records} != {tracer.decoded} decoded")
    if stats.records != fed:
        problems.append(f"IngestStats.records {stats.records} != {fed} fed")
    return problems


def analyse(
    tracer: Tracer, outcome, main_thread: int
) -> Tuple[Dict[str, Dict[str, float]], List[str]]:
    """Per-thread ledgers of one traced pass, and every failed check."""
    walls = {main_thread: ("main", outcome.wall_s)}
    if outcome.producer_thread is not None:
        walls[outcome.producer_thread] = ("producer", outcome.producer_wall_s)
    ledgers: Dict[str, Dict[str, float]] = {}
    problems: List[str] = []
    for ident, trace in tracer.threads.items():
        if ident not in walls:
            problems.append(f"spans on an unexpected thread {ident}")
            continue
        label, wall_s = walls[ident]
        ledgers[label] = thread_ledger(wall_s, trace)
        problems.extend(ledger_problems(label, wall_s, ledgers[label]))
    problems.extend(stage_problems(outcome.result.stage_stats, tracer.threads))
    problems.extend(ingest_problems(tracer, outcome.records))
    return ledgers, problems


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def per_layer(outcome, ledgers: Mapping[str, Mapping[str, float]], tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of one traced pass except the run-level
    ``trace_overhead_ratio`` and ``error_ratio``.

    Times are layer self times summed over threads; ``glue_s`` is the
    main thread's (in ``rotating-captures`` the main thread is the
    feeder and decode runs on the producer).
    """
    metrics: Dict[str, float] = {row: 0.0 for row in SPAN_ROWS.values()}
    del metrics["service.queue_put_s"]
    for rows in ledgers.values():
        for row, seconds in rows.items():
            if row in metrics:
                metrics[row] += seconds
    metrics["glue_s"] = ledgers["main"]["glue_s"]

    ingest = IngestStats()
    for reader_stats, _ in tracer.readers:
        ingest.merge(reader_stats)
    metrics["packets.frames"] = ingest.frames
    metrics["packets.fast_path_ratio"] = _ratio(ingest.fast_path, ingest.frames)
    metrics["packets.fallback_ratio"] = _ratio(ingest.fallbacks, ingest.frames)

    stages = outcome.result.stage_stats
    filtered = stages.get("filter", StageStats(name="filter"))
    metrics["filtering.records"] = filtered.records_in
    metrics["filtering.kept_ratio"] = _ratio(filtered.records_out, filtered.records_in)
    metrics["filtering.peak_buffered"] = filtered.peak_buffered

    dpi = outcome.result.dpi.stats
    metrics["dpi.datagrams"] = dpi.datagrams
    metrics["dpi.sweep_ratio"] = _ratio(dpi.sweeps, dpi.datagrams)
    metrics["dpi.fastpath_hit_ratio"] = _ratio(dpi.fastpath_hits, dpi.datagrams)
    metrics["dpi.fastpath_fallbacks"] = dpi.fastpath_fallbacks
    metrics["dpi.fastpath_redos"] = dpi.fastpath_redos
    metrics["dpi.cache_lookups"] = dpi.cache_lookups
    metrics["dpi.cache_hit_ratio"] = dpi.cache_hit_rate
    metrics["dpi.peak_buffered"] = stages["dpi"].peak_buffered

    metrics["core.messages"] = len(outcome.result.verdicts)
    metrics["core.deferred_peak"] = stages["check"].peak_buffered

    queue = outcome.queue
    metrics["service.queue_blocked"] = queue.blocked if queue is not None else 0
    metrics["service.queue_drops"] = queue.drops if queue is not None else 0
    return metrics
