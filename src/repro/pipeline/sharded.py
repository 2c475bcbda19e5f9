"""Flow-sharded parallel streaming: partition by flow key, merge exactly.

Every stateful layer of the streaming pipeline — DPI stream sessions,
signature learners, checker streams — keys its state by flow, so a
capture can be hash-partitioned across worker processes by the
direction-agnostic flow key (the 5-tuple with endpoints sorted) and each
shard can run the full streaming pipeline independently.  The only
capture-global state is the filter's two window heuristics; the
partitioning pass pre-collects those sets and seeds every shard's
:class:`~repro.filtering.online.OnlineTwoStageFilter` with them (see
that module), so per-shard keep/drop decisions equal a global run's.

Determinism contract.  The single-process pipeline emits analyses in
a total order that is fully determined by per-record facts: sort by

    (timestamp, stream first-kept timestamp, stream first-arrival index,
     record arrival index)

where "arrival index" numbers the records of the whole capture in input
order.  Each worker computes exactly this key for every analysis it
produces (a shard sees a subsequence of the capture, so global arrival
indices are handed to it alongside its records), and the coordinator
merges shard outputs by the key.  Keys are unique (one analysis per
record), so the merged order — and with it verdict numbering, summary
example selection, and ``FilterResult`` accounting — is bit-identical
to the single-process streaming path for every shard count and any
worker finish order.

Shard placement uses a keyed BLAKE2b digest, not Python's builtin
``hash``: string hashing is salted per process (``PYTHONHASHSEED``), and
shard assignment must agree between the coordinator and every worker.

Fallback: when worker processes cannot be used (unpicklable factories, a
sandbox that forbids ``fork``, or this process already *is* a pool
worker), the same partition → execute → merge path runs in-process, so
results never depend on whether the pool engaged.
"""

from __future__ import annotations

import hashlib
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.checker import ComplianceChecker
from repro.core.verdict import MessageVerdict
from repro.dpi.engine import DpiEngine, DpiResult, DpiStats
from repro.dpi.messages import DatagramAnalysis
from repro.filtering.heuristics import EndpointTuple
from repro.filtering.pipeline import (
    FilterResult,
    StageCounts,
    TwoStageFilter,
    _evaluate,
)
from repro.filtering.timespan import TimespanFilter
from repro.packets.packet import PacketRecord
from repro.pipeline.stage import (
    DEFAULT_CHUNK_SIZE,
    Pipeline,
    StageStats,
    merge_stage_stats,
)
from repro.pipeline.stages import (
    CheckStage,
    DpiStage,
    FilterStage,
    ordered_verdicts,
)
from repro.streams.flow import FlowKey, Stream

#: ``(timestamp, first_kept_ts, first_arrival, arrival)`` — see module doc.
SortKey = Tuple[float, float, int, int]


def flow_shard(key: FlowKey, shards: int) -> int:
    """Stable shard index for *key* — identical in every Python process.

    Uses BLAKE2b over a canonical rendering of the flow key rather than
    ``hash()``, which is salted per process and would scatter the same
    flow to different shards in coordinator and workers.
    """
    if shards < 1:
        raise ValueError("shards must be a positive integer")
    if shards == 1:
        return 0
    (a_ip, a_port), (b_ip, b_port), transport = key
    token = f"{a_ip}|{a_port}|{b_ip}|{b_port}|{transport}".encode()
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


@dataclass
class _ShardTask:
    """Everything one worker needs; must pickle cleanly for the pool."""

    records: List[PacketRecord]
    #: Global input-order index of each record, aligned with ``records``.
    arrivals: List[int]
    engine_factory: Callable[[], DpiEngine]
    checker_factory: Callable[[], ComplianceChecker]
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Present only in cell mode (filter → DPI → check); the seeds carry
    #: the capture-global heuristic state collected during partitioning.
    filter_: Optional[TwoStageFilter] = None
    seed_outside: FrozenSet[EndpointTuple] = frozenset()
    seed_precall: FrozenSet[FrozenSet[str]] = frozenset()


@dataclass
class _ShardOutcome:
    """One worker's results, tagged for the deterministic merge."""

    #: ``(sort_key, analysis, verdicts for that analysis's messages)``.
    entries: List[Tuple[SortKey, DatagramAnalysis, List[MessageVerdict]]]
    dpi_stats: DpiStats
    stage_stats: List[StageStats]
    filter_result: Optional[FilterResult] = None


@dataclass
class ShardedCellRun:
    """Merged output of a flow-sharded cell run (filter → DPI → check)."""

    filter_result: FilterResult
    dpi: DpiResult
    verdicts: List[MessageVerdict]
    stage_stats: List[StageStats]


def _execute_shard(task: _ShardTask) -> _ShardOutcome:
    """Run the full streaming pipeline over one shard's records.

    Module-level so process pools can pickle it; also the in-process
    fallback path, so pool and fallback execute the same code.
    """
    engine = task.engine_factory()
    checker = task.checker_factory()
    filter_stage: Optional[FilterStage] = None
    stages: List[object] = []
    if task.filter_ is not None:
        online = task.filter_.online(
            seed_outside=task.seed_outside, seed_precall=task.seed_precall
        )
        filter_stage = FilterStage(online=online)
        stages.append(filter_stage)
    dpi_stage = DpiStage(engine)
    check_stage = CheckStage(checker)
    stages.extend([dpi_stage, check_stage])
    pipeline = Pipeline(stages, chunk_size=task.chunk_size)
    indexed = pipeline.run(task.records)
    verdicts = ordered_verdicts(indexed)
    result = dpi_stage.result()

    arrival_of = {
        id(record): arrival
        for record, arrival in zip(task.records, task.arrivals)
    }
    first_arrival: Dict[FlowKey, int] = {}
    for record, arrival in zip(task.records, task.arrivals):
        first_arrival.setdefault(record.flow_key, arrival)
    first_kept_ts: Dict[FlowKey, float] = {}
    filter_result = None
    if filter_stage is not None:
        filter_result = filter_stage.result
        for stream in filter_result.kept_streams:
            first_kept_ts[stream.key] = stream.first_timestamp

    entries: List[Tuple[SortKey, DatagramAnalysis, List[MessageVerdict]]] = []
    cursor = 0
    for analysis in result.analyses:
        record = analysis.record
        key = record.flow_key
        count = len(analysis.messages)
        sort_key = (
            record.timestamp,
            first_kept_ts.get(key, 0.0),
            first_arrival[key],
            arrival_of[id(record)],
        )
        entries.append((sort_key, analysis, verdicts[cursor:cursor + count]))
        cursor += count
    return _ShardOutcome(
        entries=entries,
        dpi_stats=result.stats,
        stage_stats=pipeline.stats(),
        filter_result=filter_result,
    )


def _partition(
    records: Sequence[PacketRecord],
    shards: int,
    window=None,
) -> Tuple[
    List[List[PacketRecord]],
    List[List[int]],
    Dict[FlowKey, int],
    FrozenSet[EndpointTuple],
    FrozenSet[FrozenSet[str]],
]:
    """Split records by flow shard, collecting the global filter state.

    Returns per-shard record/arrival lists, the first-arrival index of
    every flow key (the coordinator's stream-rank table for the filter
    merge), and — when a call *window* is given — the outside-endpoint
    and pre-call IP-pair sets the window heuristics need capture-wide.
    """
    shard_records: List[List[PacketRecord]] = [[] for _ in range(shards)]
    shard_arrivals: List[List[int]] = [[] for _ in range(shards)]
    first_arrival: Dict[FlowKey, int] = {}
    shard_of: Dict[FlowKey, int] = {}
    outside: Set[EndpointTuple] = set()
    precall: Set[FrozenSet[str]] = set()
    for arrival, record in enumerate(records):
        key = record.flow_key
        index = shard_of.get(key)
        if index is None:
            index = flow_shard(key, shards)
            shard_of[key] = index
            first_arrival[key] = arrival
        shard_records[index].append(record)
        shard_arrivals[index].append(arrival)
        if window is not None:
            ts = record.timestamp
            if not (window.extended_start <= ts <= window.extended_end):
                outside.add((record.src_ip, record.src_port, record.transport))
                outside.add((record.dst_ip, record.dst_port, record.transport))
            if ts < window.call_start:
                precall.add(frozenset((record.src_ip, record.dst_ip)))
    return (
        shard_records,
        shard_arrivals,
        first_arrival,
        frozenset(outside),
        frozenset(precall),
    )


def _resolve_workers(workers: Optional[int], tasks: int) -> int:
    """Worker processes to use: 0/1 means in-process, ``None`` auto-sizes.

    Delegates to :func:`repro.experiments.scheduler.plan_shard_workers`,
    which additionally clamps to the CPU count — oversubscribed shard
    pools are a measured throughput cliff, not a tradeoff.
    """
    from repro.experiments.scheduler import plan_shard_workers

    return plan_shard_workers(workers, tasks).effective


def _execute_tasks(
    tasks: List[_ShardTask], workers: Optional[int]
) -> List[_ShardOutcome]:
    """Run every shard task, on the shared pool when possible.

    Submission is largest-shard-first so the pool drains evenly; results
    are gathered in task order, so scheduling never affects the merge.
    Any environment-caused pool failure degrades to in-process execution
    of the *same* task list — the outputs are identical either way.
    """
    from repro.experiments.scheduler import (
        POOL_FALLBACK_ERRORS,
        in_pool_worker,
        shared_pool,
        shutdown_shared_pool,
        submission_order,
    )

    workers = _resolve_workers(workers, len(tasks))
    if workers > 1 and not in_pool_worker():
        try:
            # Pre-flight the only caller-supplied payloads; a lambda
            # factory should degrade cleanly, not poison pool plumbing.
            pickle.dumps((tasks[0].engine_factory, tasks[0].checker_factory))
            pool = shared_pool(workers)
            futures: Dict[int, object] = {}
            for index in submission_order(tasks, lambda t: len(t.records)):
                futures[index] = pool.submit(_execute_shard, tasks[index])
            return [futures[i].result() for i in range(len(tasks))]
        except BrokenProcessPool:
            shutdown_shared_pool()
        except POOL_FALLBACK_ERRORS:
            pass
    return [_execute_shard(task) for task in tasks]


def _build_tasks(
    shard_records: List[List[PacketRecord]],
    shard_arrivals: List[List[int]],
    engine_factory: Callable[[], DpiEngine],
    checker_factory: Callable[[], ComplianceChecker],
    chunk_size: int,
    filter_: Optional[TwoStageFilter] = None,
    seed_outside: FrozenSet[EndpointTuple] = frozenset(),
    seed_precall: FrozenSet[FrozenSet[str]] = frozenset(),
) -> List[_ShardTask]:
    tasks = [
        _ShardTask(
            records=records,
            arrivals=arrivals,
            engine_factory=engine_factory,
            checker_factory=checker_factory,
            chunk_size=chunk_size,
            filter_=filter_,
            seed_outside=seed_outside,
            seed_precall=seed_precall,
        )
        for records, arrivals in zip(shard_records, shard_arrivals)
        if records
    ]
    if not tasks:
        # Empty capture: one empty shard still produces a well-formed
        # (empty) FilterResult/DpiResult and the full stage-stats shape.
        tasks = [
            _ShardTask(
                records=[],
                arrivals=[],
                engine_factory=engine_factory,
                checker_factory=checker_factory,
                chunk_size=chunk_size,
                filter_=filter_,
                seed_outside=seed_outside,
                seed_precall=seed_precall,
            )
        ]
    return tasks


def _merge_outcomes(
    outcomes: Sequence[_ShardOutcome],
) -> Tuple[List[DatagramAnalysis], List[MessageVerdict], DpiStats, List[StageStats]]:
    entries = sorted(
        (entry for outcome in outcomes for entry in outcome.entries),
        key=lambda entry: entry[0],
    )
    analyses: List[DatagramAnalysis] = []
    verdicts: List[MessageVerdict] = []
    for _key, analysis, slice_ in entries:
        analyses.append(analysis)
        verdicts.extend(slice_)
    stats = DpiStats()
    for outcome in outcomes:
        stats.merge(outcome.dpi_stats)
    merged: Dict[str, StageStats] = {}
    for outcome in outcomes:
        merge_stage_stats(merged, outcome.stage_stats)
    return analyses, verdicts, stats, list(merged.values())


def _merge_filter_results(
    outcomes: Sequence[_ShardOutcome], first_arrival: Dict[FlowKey, int]
) -> FilterResult:
    """Reassemble the global ``FilterResult`` from per-shard results.

    Stream lists are re-interleaved by each stream's first-arrival index
    (the insertion order a single-process filter would have used), and
    ``removed_by`` buckets are keyed in first-encounter order — stage 1
    first, then stage-2 heuristics by the rank of the earliest stream
    each one removed — reproducing the single-process dict layout.
    """
    def rank(stream: Stream) -> int:
        return first_arrival[stream.key]

    kept_streams: List[Stream] = []
    buckets: Dict[str, List[Stream]] = {}
    for outcome in outcomes:
        result = outcome.filter_result
        kept_streams.extend(result.kept_streams)
        for name, streams in result.removed_by.items():
            buckets.setdefault(name, []).extend(streams)
    kept_streams.sort(key=rank)

    stage1_name = TimespanFilter.name
    removed_by: Dict[str, List[Stream]] = {
        stage1_name: sorted(buckets.pop(stage1_name, []), key=rank)
    }
    for name in sorted(
        buckets, key=lambda name: min(rank(s) for s in buckets[name])
    ):
        removed_by[name] = sorted(buckets[name], key=rank)

    stage2_streams = [
        stream
        for name, streams in removed_by.items()
        if name != stage1_name
        for stream in streams
    ]
    all_streams = kept_streams + [
        stream for streams in removed_by.values() for stream in streams
    ]
    return FilterResult(
        raw=StageCounts.of(all_streams),
        stage1_removed=StageCounts.of(removed_by[stage1_name]),
        stage2_removed=StageCounts.of(stage2_streams),
        kept=StageCounts.of(kept_streams),
        kept_streams=kept_streams,
        removed_by=removed_by,
        evaluation=_evaluate(kept_streams, removed_by),
    )


def run_streaming_sharded(
    records: Sequence[PacketRecord],
    engine_factory: Callable[[], DpiEngine],
    checker_factory: Callable[[], ComplianceChecker] = ComplianceChecker,
    shards: int = 2,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: Optional[int] = None,
) -> Tuple[DpiResult, List[MessageVerdict], List[StageStats]]:
    """Flow-sharded counterpart of :func:`repro.pipeline.run_streaming`.

    Partitions pre-filtered *records* into ``shards`` by flow key, runs
    DPI → check per shard (each on a fresh engine/checker built by the
    factories), and merges deterministically: the returned analyses,
    verdict order, and summary-relevant facts are bit-identical to the
    single-process streaming path for any shard count.

    ``workers``: ``None`` auto-sizes to the CPU count, ``0``/``1`` runs
    every shard in-process (still exercising the partition/merge path),
    and unpicklable factories or a pool-hostile environment degrade to
    in-process execution with identical output.
    """
    records = list(records)
    shard_records, shard_arrivals, _first_arrival, _o, _p = _partition(
        records, shards
    )
    tasks = _build_tasks(
        shard_records, shard_arrivals, engine_factory, checker_factory,
        chunk_size,
    )
    outcomes = _execute_tasks(tasks, workers)
    analyses, verdicts, stats, stage_stats = _merge_outcomes(outcomes)
    return DpiResult(analyses=analyses, stats=stats), verdicts, stage_stats


def run_cell_sharded(
    records: Sequence[PacketRecord],
    filter_: TwoStageFilter,
    engine_factory: Callable[[], DpiEngine],
    checker_factory: Callable[[], ComplianceChecker] = ComplianceChecker,
    shards: int = 2,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: Optional[int] = None,
) -> ShardedCellRun:
    """Flow-sharded full cell pipeline: filter → DPI → check per shard.

    The partitioning pass collects the capture-global heuristic state
    (outside-window endpoints, pre-call IP pairs) and seeds every
    shard's online filter with it, so per-shard filtering decisions —
    and therefore the merged ``FilterResult``, analyses, and verdicts —
    are bit-identical to a single-process run.
    """
    records = list(records)
    window = filter_.window
    shard_records, shard_arrivals, first_arrival, outside, precall = _partition(
        records, shards, window
    )
    tasks = _build_tasks(
        shard_records, shard_arrivals, engine_factory, checker_factory,
        chunk_size, filter_=filter_, seed_outside=outside,
        seed_precall=precall,
    )
    outcomes = _execute_tasks(tasks, workers)
    analyses, verdicts, stats, stage_stats = _merge_outcomes(outcomes)
    return ShardedCellRun(
        filter_result=_merge_filter_results(outcomes, first_arrival),
        dpi=DpiResult(analyses=analyses, stats=stats),
        verdicts=verdicts,
        stage_stats=stage_stats,
    )
