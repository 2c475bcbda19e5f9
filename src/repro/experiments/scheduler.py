"""Every execution decision of the system lives here.

This module owns both halves of "how should this run execute":

* **The shared process pool.**  Both parallelism levels — matrix cells
  (:mod:`repro.experiments.parallel`) and intra-cell flow shards
  (:mod:`repro.pipeline.sharded`) — schedule onto the single
  :class:`~concurrent.futures.ProcessPoolExecutor` owned here, so a run
  never oversubscribes the machine with one pool per axis and worker
  processes are spawned (and warmed) once per Python process, not once
  per call.  An ``atexit`` hook tears the pool down when the process
  exits, so pool workers can never outlive the CLI.

* **The adaptive execution planner.**  :func:`plan_execution` turns
  cheap observable signals (:class:`PlanSignals`: record volume, flow
  histogram, calibrated per-stage rates from
  :mod:`repro.experiments.costmodel`) into an :class:`ExecutionPlan` —
  ``workers``/``shard_workers``/``chunk_size``/``dpi_backend`` — by
  minimizing modeled wall-clock, and records the full rationale so
  ``pipeline-stats`` and the bench JSON can show *why* each knob landed
  where it did.  :func:`plan_cell_execution` is the runner-facing entry
  point: calibration when it exists, a micro-probe when it does not.

The pool ``initializer`` pre-builds the process-wide default engine and
checker (:func:`repro.experiments.runner.default_engine` /
``default_checker``), so cell workers do not pay construction cost on
their first cell.  It also marks the process as a pool worker: code that
could otherwise nest a second pool (a sharded cell running *inside* a
cell worker) checks :func:`in_pool_worker` and degrades to in-process
shard execution instead of spawning grandchildren.

``POOL_FALLBACK_ERRORS`` is the shared contract for "the environment, not
the code, refused to parallelize": unpicklable payloads, broken pools,
sandboxes that forbid ``fork``.  Callers catch it and fall back to
in-process execution, which must produce bit-identical results anyway.
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)


class PoolClosedError(RuntimeError):
    """The shared pool was finally shut down (interpreter exit path).

    Raised by :func:`shared_pool` after :func:`shutdown_shared_pool` ran
    with ``final=True`` — typically from the ``atexit`` hook — so late
    callers degrade to in-process execution instead of re-spawning
    worker processes that would outlive (or hang) the exiting CLI.
    """


#: Environment-caused pool failures that mean "run in-process instead".
POOL_FALLBACK_ERRORS = (
    pickle.PicklingError,
    TypeError,
    AttributeError,
    BrokenProcessPool,
    OSError,
    PermissionError,
    PoolClosedError,
)

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: int = 0
_in_pool_worker: bool = False
_pool_finalized: bool = False


def _warm_worker(max_offset: int, fastpath: bool) -> None:
    """Pool initializer: flag the process and pre-build engine/checker."""
    global _in_pool_worker
    _in_pool_worker = True
    # Forked workers inherit the CLI's SIGTERM/SIGINT handlers, which
    # tear down the *shared pool* — a parent-only action that deadlocks
    # in a child holding forked copies of the executor's locks.  Restore
    # the default dispositions so ``terminate()`` actually kills workers.
    import signal

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass
    from repro.experiments.runner import default_checker, default_engine

    default_engine(max_offset, fastpath)
    default_checker()


def in_pool_worker() -> bool:
    """True inside a pool worker process (never nest a second pool there)."""
    return _in_pool_worker


def shared_pool(
    workers: Optional[int] = None,
    max_offset: int = 200,
    fastpath: bool = True,
) -> ProcessPoolExecutor:
    """The process-wide executor, grown (never shrunk) to ``workers``.

    The first caller's engine parameters seed the worker warm-up; later
    callers with different parameters still work — ``default_engine`` is
    an LRU per ``(max_offset, fastpath)`` — they just build that engine on
    first use instead of at worker start.
    """
    global _pool, _pool_workers
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be a positive integer or None")
    if _pool_finalized:
        raise PoolClosedError(
            "the shared pool was finally shut down; run in-process instead"
        )
    if _pool is None or _pool_workers < workers:
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
        _pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_warm_worker,
            initargs=(max_offset, fastpath),
        )
        _pool_workers = workers
    return _pool


def kill_pool_workers() -> int:
    """Terminate the pool's worker processes; returns how many were signalled.

    **Signal-handler safe**: reads the executor's private process table
    (guarded against both stdlib layout changes and the table mutating
    under a mid-fork race) and signals the workers directly, touching no
    executor lock — ``ProcessPoolExecutor.shutdown`` acquires the
    non-reentrant ``_shutdown_lock``, which deadlocks if the interrupted
    main thread was inside ``submit()`` already holding it.  Workers run
    with default signal dispositions (:func:`_warm_worker`), so the
    ``SIGTERM`` that ``terminate()`` sends actually kills them.
    """
    pool = _pool
    if pool is None:
        return 0
    processes: List = []
    for _ in range(3):
        try:
            processes = list((getattr(pool, "_processes", None) or {}).values())
            break
        except RuntimeError:  # pragma: no cover - table mutated mid-fork
            continue
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError, AttributeError):
            # Racing exit, or a worker whose fork has not completed yet
            # (``_popen`` still unset) — either way there is nothing to kill.
            pass
    return len(processes)


def shutdown_shared_pool(final: bool = False, terminate: bool = False) -> None:
    """Tear the shared pool down (broken pool recovery, test isolation).

    ``final=True`` additionally forbids re-creation: any later
    :func:`shared_pool` call raises :class:`PoolClosedError` (which is in
    ``POOL_FALLBACK_ERRORS``, so executors degrade to in-process rather
    than fail).  The module registers ``shutdown_shared_pool(final=True)``
    with :mod:`atexit` so pool workers cannot outlive the CLI process.

    ``terminate=True`` additionally kills worker processes outright
    instead of letting them finish their in-flight task — the graceful-
    drain path (``serve`` shutdown), where the contract is "no orphaned
    workers survive the CLI", not "finish the work".  Not for signal
    handlers — they must use :func:`kill_pool_workers` alone.
    """
    global _pool, _pool_workers, _pool_finalized
    if _pool is not None:
        processes = dict(getattr(_pool, "_processes", None) or {})
        if terminate:
            kill_pool_workers()
        _pool.shutdown(wait=False, cancel_futures=True)
        if terminate:
            for process in processes.values():
                process.join(timeout=2.0)
        _pool = None
        _pool_workers = 0
    if final:
        _pool_finalized = True


def reopen_shared_pool() -> None:
    """Lift a final shutdown so a new pool may be created (tests only)."""
    global _pool_finalized
    _pool_finalized = False


atexit.register(shutdown_shared_pool, final=True)


@dataclass(frozen=True)
class ShardPlan:
    """The resolved worker count for a sharded run, plus why.

    ``effective`` is what actually runs: the requested count (or the CPU
    count when unspecified), capped by the task count and by the CPU
    count.  The CPU cap exists because process-parallel sharding *loses*
    throughput once workers exceed cores — the PR 5 bench measured a
    4-shard run at 0.087x on a 1-CPU box — so oversubscription is a cliff,
    not a tradeoff.  ``in_process`` means no pool is used at all
    (``effective <= 1``); results are bit-identical either way.
    """

    requested: Optional[int]
    effective: int
    cpu_count: int
    clamped: bool
    in_process: bool

    def as_dict(self) -> dict:
        return {
            "requested": self.requested,
            "effective": self.effective,
            "cpu_count": self.cpu_count,
            "clamped": self.clamped,
            "in_process": self.in_process,
        }

    def describe(self) -> str:
        """One-line human rendering for CLI output."""
        mode = "in-process" if self.in_process else f"{self.effective} workers"
        note = f" (clamped to {self.cpu_count} cpu)" if self.clamped else ""
        return f"{mode}{note}"


def plan_shard_workers(
    requested: Optional[int], tasks: int, cpu_count: Optional[int] = None
) -> ShardPlan:
    """Resolve a shard worker request against the machine and task count.

    ``requested=None`` auto-sizes to the CPU count; ``0``/``1`` force
    in-process execution.  Anything larger is capped at the task count
    (idle workers are pointless) and then clamped to the CPU count (see
    :class:`ShardPlan`).  ``cpu_count`` is injectable for tests.
    """
    if requested is not None and requested < 0:
        raise ValueError("workers must be >= 0 or None")
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if cpus < 1:
        raise ValueError("cpu_count must be positive")
    want = cpus if requested is None else requested
    capped = min(want, tasks)
    effective = min(capped, cpus)
    return ShardPlan(
        requested=requested,
        effective=effective,
        cpu_count=cpus,
        clamped=effective < capped,
        in_process=effective <= 1,
    )


T = TypeVar("T")


def submission_order(
    items: Sequence[T], cost: Callable[[T], float]
) -> List[int]:
    """Indices of *items* sorted largest-expected-cost-first.

    Ties keep enumeration order, so equal-cost workloads submit exactly
    as they enumerate and the schedule stays deterministic.  Callers
    submit in this order but still gather results in enumeration order —
    scheduling must never leak into merge order.
    """
    return sorted(range(len(items)), key=lambda i: (-cost(items[i]), i))


# --------------------------------------------------------------------------
# Adaptive execution planning
# --------------------------------------------------------------------------

#: Modeled fixed cost of submitting one shard task to the pool and
#: gathering its outcome (future bookkeeping, scheduling latency).
SHARD_TASK_OVERHEAD_SECONDS = 0.015

#: Modeled cost per record of shipping it to a worker and its analysis
#: back (pickle both ways).  Dominates small captures; this is why
#: sharding a short call loses even with idle cores.
IPC_SECONDS_PER_RECORD = 2e-5

#: Modeled coordinator-side cost per record of the partitioning pass
#: (flow hashing, per-shard list building) plus the sorted merge.
PARTITION_SECONDS_PER_RECORD = 2e-6

#: Records the scalar sweep typically touches per flow before the
#: flow-sticky fast path locks: the learner's sightings plus the
#: engine's pre-lock lookahead window.
PRELOCK_SWEEP_ESTIMATE = 36

#: Mean swept records a chunk must carry for the columnar batch pass to
#: amortize its joined-buffer setup; below this the scalar loop wins.
COLUMNAR_MIN_BATCH = 8

#: Smallest chunk the planner will pick; tinier dispatch buys nothing.
MIN_CHUNK_SIZE = 32

#: Default pipeline chunk size, duplicated from ``repro.pipeline.stage``
#: to keep this module import-light (pinned by a test).
_DEFAULT_CHUNK_SIZE = 256


@dataclass(frozen=True)
class PlanSignals:
    """Everything :func:`plan_execution` is allowed to look at.

    All fields are cheap observables (one O(n) pass over the records, a
    calibration-file read, ``os.cpu_count()``) — building the signals
    must cost a sliver of the run they steer.  ``kept_records`` is an
    estimate of how many records survive the filter (probe-extrapolated
    when available, total records otherwise); ``rates`` maps
    :data:`repro.experiments.costmodel.RATE_KEYS` to records/second.
    """

    records: int
    kept_records: int
    flows: int
    max_flow_records: int
    cpu_count: int
    rates: Mapping[str, float]
    columnar_available: bool = True
    fastpath: bool = True
    cells: int = 1
    rate_source: str = "default"
    #: Capture frames still to be decoded before the pipeline sees
    #: records — non-zero only for pcap-sourced sessions.  Decode runs
    #: serially ahead of every option (sharding happens after ingest),
    #: so its modeled cost is charged to all of them equally.
    decode_records: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "records": self.records,
            "kept_records": self.kept_records,
            "flows": self.flows,
            "max_flow_records": self.max_flow_records,
            "cpu_count": self.cpu_count,
            "rates": {key: round(rate, 1) for key, rate in sorted(self.rates.items())},
            "columnar_available": self.columnar_available,
            "fastpath": self.fastpath,
            "cells": self.cells,
            "rate_source": self.rate_source,
            "decode_records": self.decode_records,
        }


@dataclass(frozen=True)
class ExecutionPlan:
    """The resolved knobs for one run, plus the full decision record.

    ``costs`` holds every option the selector modeled, as
    ``(option, modeled_seconds)`` pairs in consideration order, and
    ``rationale`` the human-readable reasons — both surface verbatim in
    ``pipeline-stats`` output and the bench JSON, so a surprising knob
    setting is always explainable from the artifact alone.
    """

    workers: int
    shard_workers: int
    chunk_size: int
    dpi_backend: str
    mode: str = "auto"
    rationale: Tuple[str, ...] = ()
    costs: Tuple[Tuple[str, float], ...] = ()
    signals: Optional[PlanSignals] = None
    probe: Optional[Tuple[Tuple[str, object], ...]] = None

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "mode": self.mode,
            "workers": self.workers,
            "shard_workers": self.shard_workers,
            "chunk_size": self.chunk_size,
            "dpi_backend": self.dpi_backend,
            "rationale": list(self.rationale),
            "costs": {option: round(seconds, 6) for option, seconds in self.costs},
        }
        if self.signals is not None:
            payload["signals"] = self.signals.as_dict()
        if self.probe is not None:
            payload["probe"] = dict(self.probe)
        return payload

    def describe(self) -> str:
        """One-line human rendering for CLI output."""
        return (
            f"{self.mode}: workers={self.workers} "
            f"shard_workers={self.shard_workers} chunk={self.chunk_size} "
            f"backend={self.dpi_backend}"
        )


def fixed_plan(
    workers: Optional[int],
    shard_workers: int,
    chunk_size: int,
    dpi_backend: str,
) -> ExecutionPlan:
    """Echo hand-picked knobs as a plan, so reporting has one shape."""
    return ExecutionPlan(
        workers=workers if workers is not None else (os.cpu_count() or 1),
        shard_workers=shard_workers,
        chunk_size=chunk_size,
        dpi_backend=dpi_backend,
        mode="fixed",
        rationale=("fixed: knobs taken from configuration, planner bypassed",),
    )


def _shard_candidates(cpus: int, flows: int) -> List[int]:
    """Shard-worker counts worth modeling: powers of two up to the cap."""
    cap = max(1, min(cpus, flows))
    candidates = [1]
    k = 2
    while k < cap:
        candidates.append(k)
        k *= 2
    if cap > 1:
        candidates.append(cap)
    return candidates


def plan_execution(signals: PlanSignals) -> ExecutionPlan:
    """Pick every execution knob by minimizing modeled wall-clock.

    Deterministic: identical signals produce an identical plan (ties
    break toward the simpler option — fewer shards, scalar backend).
    The model is deliberately coarse; it only has to *rank* options,
    and the measured-rate inputs carry the machine-specific truth.
    """
    rates = dict(signals.rates)
    records = max(signals.records, 0)
    kept = min(max(signals.kept_records, 0), records)
    flows = max(signals.flows, 1 if records else 0)
    rationale: List[str] = [
        f"signals: {records} records, {kept} kept (est.), {flows} flows, "
        f"largest flow {signals.max_flow_records} records, "
        f"{signals.cpu_count} cpus; rates from {signals.rate_source}"
    ]
    costs: List[Tuple[str, float]] = []

    # Chunk size: the default amortizes per-dispatch overhead; only a
    # capture smaller than one chunk gets a tighter bound (same work,
    # smaller peak buffer).
    chunk_size = _DEFAULT_CHUNK_SIZE
    if 0 < records < _DEFAULT_CHUNK_SIZE:
        chunk_size = max(MIN_CHUNK_SIZE, records)
        rationale.append(
            f"chunk_size={chunk_size}: capture smaller than the default "
            f"chunk, bounding dispatch to the input size"
        )
    else:
        rationale.append(
            f"chunk_size={chunk_size}: default batch amortizes dispatch "
            f"overhead at this volume"
        )

    # DPI backend: the columnar batch pass only touches the pre-lock
    # sweep window, so it pays off when enough swept records share a
    # chunk to amortize the joined-buffer setup.
    swept = kept if not signals.fastpath else min(
        kept, flows * PRELOCK_SWEEP_ESTIMATE
    )
    chunks = max(1, -(-kept // chunk_size)) if kept else 1
    swept_per_chunk = swept / chunks
    scalar_rate = rates.get("dpi_scalar", 1.0)
    columnar_rate = rates.get("dpi_columnar", scalar_rate)
    dpi_backend = "scalar"
    if not signals.columnar_available:
        rationale.append("backend=scalar: columnar vector path unavailable")
    elif columnar_rate <= scalar_rate:
        rationale.append(
            f"backend=scalar: calibrated columnar rate "
            f"({columnar_rate:.0f}/s) does not beat scalar "
            f"({scalar_rate:.0f}/s)"
        )
    elif swept_per_chunk < COLUMNAR_MIN_BATCH:
        rationale.append(
            f"backend=scalar: pre-lock sweep window too narrow to batch "
            f"({swept_per_chunk:.1f} swept records/chunk < "
            f"{COLUMNAR_MIN_BATCH})"
        )
    else:
        dpi_backend = "columnar"
        rationale.append(
            f"backend=columnar: {swept_per_chunk:.1f} swept records/chunk "
            f"amortize the batch pass at {columnar_rate:.0f}/s vs "
            f"{scalar_rate:.0f}/s scalar"
        )

    # Modeled single-process wall-clock from the calibrated stage rates.
    # Capture decode (pcap-sourced sessions only) happens before any
    # sharding, so it is a serial charge on every option alike — it
    # grows the modeled totals without changing the ranking.
    decode_records = max(signals.decode_records, 0)
    decode_seconds = (
        decode_records / max(rates.get("decode", 1.0), 1.0)
        if decode_records
        else 0.0
    )
    if decode_records:
        rationale.append(
            f"ingest: {decode_records} capture frames decode serially at "
            f"{rates.get('decode', 1.0):.0f}/s "
            f"({decode_seconds:.3f}s ahead of every option)"
        )
    dpi_rate = columnar_rate if dpi_backend == "columnar" else scalar_rate
    filter_seconds = records / max(rates.get("filter", 1.0), 1.0)
    dpi_seconds = kept / max(dpi_rate, 1.0)
    check_seconds = kept / max(rates.get("check", 1.0), 1.0)
    serial_seconds = filter_seconds + dpi_seconds + check_seconds

    # Shard workers: the parallel fraction is bounded both by the worker
    # count and by the largest unsplittable flow; partitioning, IPC, and
    # task bookkeeping are charged on top.  In-process execution pays
    # none of that.
    shard_workers = 1
    best_seconds = serial_seconds + decode_seconds
    costs.append(("in-process", serial_seconds + decode_seconds))
    partition_seconds = records * PARTITION_SECONDS_PER_RECORD
    max_flow_share = (
        signals.max_flow_records / records if records else 1.0
    )
    for k in _shard_candidates(signals.cpu_count, flows):
        if k == 1:
            continue
        shard_plan = plan_shard_workers(k, k, signals.cpu_count)
        if shard_plan.in_process:
            # The ask the machine refuses: partition + merge overhead
            # with zero parallel win (PR 6's measured 0.81x cliff).
            modeled = serial_seconds + decode_seconds + partition_seconds
            costs.append((f"shards={k} (clamped in-process)", modeled))
            continue
        effective = shard_plan.effective
        parallel_seconds = max(
            serial_seconds / effective, serial_seconds * max_flow_share
        )
        modeled = (
            decode_seconds
            + parallel_seconds
            + partition_seconds
            + records * IPC_SECONDS_PER_RECORD
            + effective * SHARD_TASK_OVERHEAD_SECONDS
        )
        costs.append((f"shards={k}", modeled))
        if modeled < best_seconds:
            best_seconds = modeled
            shard_workers = k
    if shard_workers > 1:
        rationale.append(
            f"shard_workers={shard_workers}: modeled {best_seconds:.3f}s "
            f"beats in-process {serial_seconds:.3f}s"
        )
    else:
        rationale.append(
            f"shard_workers=1: no sharded option beats in-process "
            f"({serial_seconds:.3f}s modeled) — parallel overhead "
            f"exceeds the win at this volume/CPU count"
        )

    # Matrix-level workers: cells are embarrassingly parallel, so they
    # get the cores first; when they do, per-cell sharding would nest
    # pools (the executor degrades it to in-process anyway).
    workers = max(1, min(signals.cpu_count, signals.cells))
    if workers > 1 and shard_workers > 1:
        shard_workers = 1
        rationale.append(
            f"workers={workers}: matrix cells saturate the pool; "
            f"per-cell sharding disabled to avoid nesting"
        )
    elif signals.cells > 1:
        rationale.append(
            f"workers={workers}: {signals.cells} cells on "
            f"{signals.cpu_count} cpus"
        )

    return ExecutionPlan(
        workers=workers,
        shard_workers=shard_workers,
        chunk_size=chunk_size,
        dpi_backend=dpi_backend,
        mode="auto",
        rationale=tuple(rationale),
        costs=tuple(costs),
        signals=signals,
    )


def columnar_vector_available() -> bool:
    """True when the columnar backend's numpy vector path can engage."""
    try:
        from repro.dpi import columnar
    except ImportError:  # pragma: no cover - columnar module always ships
        return False
    return getattr(columnar, "_np", None) is not None


def plan_cell_execution(
    records: Sequence,
    window,
    config,
    cells: int = 1,
    cpu_count: Optional[int] = None,
) -> ExecutionPlan:
    """Plan one cell's execution from calibration, probing when cold.

    *records* is the cell's full (unfiltered) record list and *window*
    its call window; *config* is the
    :class:`~repro.experiments.runner.ExperimentConfig` carrying
    ``calibration_file``/``max_offset``/``fastpath``.  With a calibrated
    cache the plan comes straight from the measured rates; on a cold
    cache the micro-probe measures the first
    :data:`~repro.experiments.costmodel.PROBE_RECORDS` records first.
    Either way the subsequent real run replays every record through
    fresh engine state, so probed and unprobed outputs are bit-identical.
    """
    from repro.experiments import costmodel

    store = costmodel.get_store(config.calibration_file)
    calibration = store.calibration
    probe = None
    if calibration.calibrated:
        rates = calibration.effective_rates()
        rate_source = "calibration"
        kept_estimate = len(records)
    else:
        probe = costmodel.probe_records(
            records, window, config.max_offset, config.fastpath
        )
        rates = dict(costmodel.DEFAULT_RATES)
        rates.update(probe.rates)
        rate_source = "probe"
        if probe.probed_records:
            kept_ratio = probe.kept_records / probe.probed_records
            kept_estimate = int(len(records) * kept_ratio)
        else:
            kept_estimate = len(records)
    workload = costmodel.workload_signals(records)
    if cpu_count is None:
        # A cell planned inside a pool worker must never ask for shards:
        # the executor would degrade them to in-process anyway, but only
        # after paying the partition/merge overhead the model charges
        # parallel runs for.  One visible CPU models that truthfully.
        cpu_count = 1 if in_pool_worker() else (os.cpu_count() or 1)
    signals = PlanSignals(
        records=workload.records,
        kept_records=kept_estimate,
        flows=workload.flows,
        max_flow_records=workload.max_flow_records,
        cpu_count=cpu_count,
        rates=rates,
        columnar_available=columnar_vector_available(),
        fastpath=config.fastpath,
        cells=cells,
        rate_source=rate_source,
    )
    plan = plan_execution(signals)
    if probe is not None:
        plan = replace(plan, probe=tuple(sorted(probe.as_dict().items())))
    return plan
