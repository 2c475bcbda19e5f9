"""End-to-end experiment execution.

One *experiment* is the full pipeline for one (app, network, repeat) cell:
simulate the call, filter unrelated traffic, run the DPI, judge compliance.
A *matrix* is the paper's 6 apps × 3 network configurations × N repeats.

Aggregates keep only counters and verdict summaries, so a full matrix stays
small in memory even for long calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps import APP_NAMES, CallConfig, NetworkCondition, get_simulator
from repro.core import ComplianceChecker, ComplianceSummary
from repro.core.metrics import TypeComplianceEntry, VolumeCompliance
from repro.dpi import DatagramClass, DpiEngine, DpiStats, Protocol
from repro.dpi.messages import ExtractedMessage
from repro.filtering import TwoStageFilter
from repro.filtering.pipeline import FilterResult, StageCounts
from repro.pipeline import (
    DEFAULT_CHUNK_SIZE,
    StageStats,
    merge_stage_stats,
    run_cell_sharded,
)
from repro.service.session import AnalysisSession

#: Maximum example violations kept per (protocol, type) entry when merging.
MAX_EXAMPLE_VIOLATIONS = 3


@lru_cache(maxsize=8)
def default_engine(
    max_offset: int, fastpath: bool = True, backend: str = "scalar"
) -> DpiEngine:
    """Process-wide ``DpiEngine`` per ``(max_offset, fastpath, backend)``.

    Cells share one engine so it (and, on the columnar backend, its batch
    scanner) is built once per process; it carries no per-cell state
    besides its lifetime ``DpiStats`` counters.
    """
    return DpiEngine(max_offset=max_offset, fastpath=fastpath, backend=backend)


@lru_cache(maxsize=1)
def default_checker() -> ComplianceChecker:
    """Process-wide checker; it keeps no state between ``check`` calls."""
    return ComplianceChecker()


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters for one experiment cell (or a whole matrix).

    ``shard_workers`` > 1 flow-shards each cell's streaming pipeline
    across that many worker processes (see :mod:`repro.pipeline.sharded`);
    results are bit-identical to ``shard_workers=1`` by construction.
    ``chunk_size`` bounds the record batches the pipeline hands each
    stage per dispatch (``1`` = historical per-record feeding).
    ``dpi_backend`` selects the stage-one sweep implementation
    (``"scalar"`` or ``"columnar"``); outputs are bit-identical.

    ``plan="auto"`` hands ``shard_workers``/``chunk_size``/``dpi_backend``
    to the adaptive execution planner
    (:func:`repro.experiments.scheduler.plan_cell_execution`): the knobs
    above become ignored defaults and each cell is planned from measured
    signals — the calibration cache when one exists, a micro-probe on the
    first records otherwise.  Outputs are bit-identical to any fixed
    configuration by construction.  ``calibration_file`` overrides where
    the calibration cache lives (default:
    :func:`repro.experiments.costmodel.default_calibration_path`).

    ``impairment`` names a :mod:`repro.netem` profile applied to every
    cell's record stream post-synthesis — the fourth matrix axis next
    to app, network, and repeat.  Outputs under any profile remain
    bit-identical across execution shapes (sharded, streaming, either
    DPI backend), because the impaired records are produced once by
    ``AppSimulator.iter_records`` before the pipeline ever runs.
    """

    call_duration: float = 30.0
    media_scale: float = 0.5
    repeats: int = 1
    seed: int = 0
    max_offset: int = 200
    include_background: bool = True
    fastpath: bool = True
    shard_workers: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    dpi_backend: str = "scalar"
    plan: str = "fixed"
    calibration_file: Optional[str] = None
    impairment: str = "none"

    def __post_init__(self):
        if self.plan not in ("fixed", "auto"):
            raise ValueError(f"unknown plan mode: {self.plan!r}")
        from repro.netem import get_profile

        get_profile(self.impairment)


@dataclass
class ExperimentAggregate:
    """Counter-level results for one app (possibly merged across cells)."""

    app: str
    raw: StageCounts = field(default_factory=StageCounts)
    stage1_removed: StageCounts = field(default_factory=StageCounts)
    stage2_removed: StageCounts = field(default_factory=StageCounts)
    kept: StageCounts = field(default_factory=StageCounts)
    class_counts: Dict[DatagramClass, int] = field(
        default_factory=lambda: {cls: 0 for cls in DatagramClass}
    )
    protocol_counts: Dict[Protocol, int] = field(default_factory=dict)
    summary: Optional[ComplianceSummary] = None
    filter_precision: float = 1.0
    filter_recall: float = 1.0
    dpi_stats: DpiStats = field(default_factory=DpiStats)
    #: Per-stage streaming instrumentation, keyed by stage name
    #: (records in/out, wall time, peak buffered); summed across cells.
    stage_stats: Dict[str, StageStats] = field(default_factory=dict)
    #: Measured end-to-end wall seconds (simulate → verdicts), summed
    #: across merged cells; feeds the calibration cache's cell history.
    wall_seconds: float = 0.0
    #: Cells folded into this aggregate (divisor for per-cell averages).
    cells: int = 1
    #: Execution-plan decision records (``ExecutionPlan.as_dict()``), one
    #: per planned cell; empty under ``plan="fixed"``.
    plans: List[Dict[str, object]] = field(default_factory=list)

    def merge(self, other: "ExperimentAggregate") -> None:
        self.raw = _add_counts(self.raw, other.raw)
        self.stage1_removed = _add_counts(self.stage1_removed, other.stage1_removed)
        self.stage2_removed = _add_counts(self.stage2_removed, other.stage2_removed)
        self.kept = _add_counts(self.kept, other.kept)
        for cls, count in other.class_counts.items():
            self.class_counts[cls] = self.class_counts.get(cls, 0) + count
        for protocol, count in other.protocol_counts.items():
            self.protocol_counts[protocol] = (
                self.protocol_counts.get(protocol, 0) + count
            )
        if self.summary is None:
            self.summary = other.summary
        elif other.summary is not None:
            self.summary = merge_summaries(self.summary, other.summary)
        # Precision/recall: keep the worst observed (conservative).
        self.filter_precision = min(self.filter_precision, other.filter_precision)
        self.filter_recall = min(self.filter_recall, other.filter_recall)
        self.dpi_stats.merge(other.dpi_stats)
        merge_stage_stats(self.stage_stats, other.stage_stats.values())
        self.wall_seconds += other.wall_seconds
        self.cells += other.cells
        self.plans.extend(other.plans)

    def message_distribution(self) -> Dict[str, float]:
        """Table 2's row: per-protocol message share incl. fully proprietary."""
        fully = self.class_counts.get(DatagramClass.FULLY_PROPRIETARY, 0)
        total = sum(self.protocol_counts.values()) + fully
        if total == 0:
            return {}
        shares = {
            protocol.value: count / total
            for protocol, count in sorted(
                self.protocol_counts.items(), key=lambda kv: kv[0].value
            )
        }
        shares["fully_proprietary"] = fully / total
        return shares


def _add_counts(a: StageCounts, b: StageCounts) -> StageCounts:
    return StageCounts(
        udp_streams=a.udp_streams + b.udp_streams,
        udp_packets=a.udp_packets + b.udp_packets,
        tcp_streams=a.tcp_streams + b.tcp_streams,
        tcp_packets=a.tcp_packets + b.tcp_packets,
    )


def merge_summaries(a: ComplianceSummary, b: ComplianceSummary) -> ComplianceSummary:
    volume = a.volume + b.volume
    by_protocol: Dict[str, VolumeCompliance] = dict(a.volume_by_protocol)
    for protocol, vol in b.volume_by_protocol.items():
        by_protocol[protocol] = by_protocol.get(
            protocol, VolumeCompliance(0, 0)
        ) + vol
    types: Dict[Tuple[str, str], TypeComplianceEntry] = {
        key: TypeComplianceEntry(
            protocol=entry.protocol,
            type_label=entry.type_label,
            total=entry.total,
            non_compliant=entry.non_compliant,
            example_violations=list(
                entry.example_violations[:MAX_EXAMPLE_VIOLATIONS]
            ),
        )
        for key, entry in a.types.items()
    }
    for key, entry in b.types.items():
        existing = types.get(key)
        if existing is None:
            types[key] = TypeComplianceEntry(
                protocol=entry.protocol,
                type_label=entry.type_label,
                total=entry.total,
                non_compliant=entry.non_compliant,
                example_violations=list(
                    entry.example_violations[:MAX_EXAMPLE_VIOLATIONS]
                ),
            )
        else:
            existing.total += entry.total
            existing.non_compliant += entry.non_compliant
            for example in entry.example_violations:
                if len(existing.example_violations) < MAX_EXAMPLE_VIOLATIONS:
                    existing.example_violations.append(example)
    return ComplianceSummary(
        app=a.app, volume=volume, volume_by_protocol=by_protocol, types=types
    )


@dataclass
class PipelineRun:
    """Every intermediate product of one (app, network, call) cell.

    ``run_experiment`` reduces this to counter-level aggregates; the
    conformance subsystem instead needs the raw messages and verdicts to
    record and replay golden corpora, so the full pipeline state is kept.
    """

    app: str
    network: NetworkCondition
    filter_result: FilterResult
    dpi: "DpiResult"
    verdicts: List["MessageVerdict"]
    stage_stats: Dict[str, StageStats] = field(default_factory=dict)
    #: The adaptive planner's decision for this cell (``plan="auto"``
    #: only); carries the chosen knobs, modeled costs, and rationale.
    plan: Optional["ExecutionPlan"] = None


def _cell_config(
    network: NetworkCondition, config: ExperimentConfig, call_index: int
) -> CallConfig:
    return CallConfig(
        network=network,
        seed=config.seed,
        call_index=call_index,
        call_duration=config.call_duration,
        media_scale=config.media_scale,
        include_background=config.include_background,
        impairment=config.impairment,
    )


def filter_cell(
    app: str,
    network: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
    call_index: int = 0,
) -> FilterResult:
    """Simulate one cell and run only the two-stage filter over it."""
    simulator = get_simulator(app)
    call_config = _cell_config(network, config, call_index)
    window = call_config.window()
    return TwoStageFilter(window).apply(list(simulator.iter_records(call_config)))


def run_cell_pipeline(
    app: str,
    network: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
    call_index: int = 0,
    engine: Optional[DpiEngine] = None,
    checker: Optional[ComplianceChecker] = None,
    shard_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> PipelineRun:
    """Simulate one cell and stream it through filter → DPI → checker.

    This is a thin batch adapter over the streaming pipeline core: records
    flow from ``AppSimulator.iter_records`` through :class:`FilterStage`,
    :class:`DpiStage` and :class:`CheckStage` in bounded chunks, and the
    collected outputs (filter accounting, ``DpiResult``, verdict order)
    are bit-identical to the historical batch calls by construction.

    ``engine``/``checker`` default to *fresh* instances so callers that
    need controlled engine configurations (the conformance differ) are not
    coupled to the process-wide cached engines ``run_experiment`` uses.

    ``shard_workers``/``chunk_size`` default to the config's values.  With
    ``shard_workers > 1`` the cell is flow-sharded across that many worker
    processes (:func:`repro.pipeline.run_cell_sharded`) — available only
    with the default (fresh) engine and checker, since a caller-supplied
    instance cannot be split across processes; passing one keeps the cell
    single-process.

    Under ``config.plan == "auto"`` (and default engine/checker), the
    adaptive planner overrides ``shard_workers``/``chunk_size`` and the
    DPI backend from measured signals; the decision record rides on the
    returned :attr:`PipelineRun.plan`.  A probed cell replays its full
    record list through fresh engine state, so output is bit-identical
    to an unprobed run of the same plan.
    """
    if shard_workers is None:
        shard_workers = config.shard_workers
    if chunk_size is None:
        chunk_size = config.chunk_size
    if shard_workers < 1:
        raise ValueError("shard_workers must be a positive integer")
    simulator = get_simulator(app)
    call_config = _cell_config(network, config, call_index)
    dpi_backend = config.dpi_backend
    records: Optional[List] = None
    plan: Optional["ExecutionPlan"] = None
    if config.plan == "auto" and engine is None and checker is None:
        from repro.experiments.scheduler import plan_cell_execution

        records = list(simulator.iter_records(call_config))
        plan = plan_cell_execution(records, call_config.window(), config)
        shard_workers = plan.shard_workers
        chunk_size = plan.chunk_size
        dpi_backend = plan.dpi_backend
    if shard_workers > 1 and engine is None and checker is None:
        if records is None:
            records = list(simulator.iter_records(call_config))
        sharded = run_cell_sharded(
            records,
            TwoStageFilter(call_config.window()),
            engine_factory=partial(
                DpiEngine,
                max_offset=config.max_offset,
                fastpath=config.fastpath,
                backend=dpi_backend,
            ),
            shards=shard_workers,
            chunk_size=chunk_size,
            workers=shard_workers,
        )
        return PipelineRun(
            app=app,
            network=network,
            filter_result=sharded.filter_result,
            dpi=sharded.dpi,
            verdicts=sharded.verdicts,
            stage_stats={stat.name: stat for stat in sharded.stage_stats},
            plan=plan,
        )
    if engine is None:
        if plan is not None:
            # A planned cell reuses the process-wide engine keyed by its
            # chosen backend — the same sharing the fixed path gets from
            # ``run_experiment`` — so ``--plan auto`` pays no per-cell
            # engine construction the fixed path avoids.
            engine = default_engine(config.max_offset, config.fastpath, dpi_backend)
        else:
            engine = DpiEngine(
                max_offset=config.max_offset,
                fastpath=config.fastpath,
                backend=dpi_backend,
            )
    if checker is None:
        checker = default_checker() if plan is not None else ComplianceChecker()
    session = AnalysisSession(
        window=call_config.window(),
        engine=engine,
        checker=checker,
        chunk_size=chunk_size,
    )
    session.feed(
        records if records is not None else simulator.iter_records(call_config)
    )
    result = session.close()
    assert result.filter_result is not None
    return PipelineRun(
        app=app,
        network=network,
        filter_result=result.filter_result,
        dpi=result.dpi,
        verdicts=result.verdicts,
        stage_stats=result.stage_stats,
        plan=plan,
    )


def run_experiment(
    app: str,
    network: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
    call_index: int = 0,
) -> ExperimentAggregate:
    """Run one (app, network, call) cell through the full pipeline.

    Besides the verdict-level aggregates, every run measures its own
    end-to-end wall seconds and feeds the per-stage rates plus the cell
    cost back into the calibration cache
    (:mod:`repro.experiments.costmodel`), so later runs — and the
    largest-cost-first scheduler — plan from measured history.
    """
    start = time.perf_counter()
    if config.shard_workers > 1 or config.plan == "auto":
        # Sharded and planner-driven cells resolve their own engines: the
        # backend is not known until the plan exists, and sharded cells
        # build one engine per worker process.  Planned in-process cells
        # still land on the process-wide cached engine for their backend.
        run = run_cell_pipeline(app, network, config, call_index)
    else:
        run = run_cell_pipeline(
            app,
            network,
            config,
            call_index,
            engine=default_engine(
                config.max_offset, config.fastpath, config.dpi_backend
            ),
            checker=default_checker(),
        )
    wall_seconds = time.perf_counter() - start
    filter_result = run.filter_result
    dpi = run.dpi
    _record_calibration(app, network, config, run, wall_seconds)

    aggregate = ExperimentAggregate(app=app)
    aggregate.wall_seconds = wall_seconds
    if run.plan is not None:
        aggregate.plans.append(run.plan.as_dict())
    aggregate.raw = filter_result.raw
    aggregate.stage1_removed = filter_result.stage1_removed
    aggregate.stage2_removed = filter_result.stage2_removed
    aggregate.kept = filter_result.kept
    aggregate.class_counts = dpi.by_class()
    aggregate.protocol_counts = dpi.protocol_counts()
    aggregate.summary = ComplianceSummary.from_verdicts(app, run.verdicts)
    aggregate.dpi_stats = dpi.stats.copy()
    aggregate.stage_stats = run.stage_stats
    if filter_result.evaluation is not None:
        aggregate.filter_precision = filter_result.evaluation.precision
        aggregate.filter_recall = filter_result.evaluation.recall
    return aggregate


def _record_calibration(
    app: str,
    network: NetworkCondition,
    config: ExperimentConfig,
    run: PipelineRun,
    wall_seconds: float,
) -> None:
    """Fold one cell's measurements into the calibration cache.

    Persistence is best-effort and atomic (see
    :func:`repro.experiments.costmodel.save_calibration`); a refusing
    filesystem degrades to in-memory history for this process only.
    """
    from repro.experiments import costmodel
    from repro.netem import get_profile

    backend = run.plan.dpi_backend if run.plan is not None else config.dpi_backend
    # Units scale by the impairment's expected volume factor, and impaired
    # cells key separately, so clean-cell history is never skewed by (and
    # never mis-prices) impaired workloads.
    units = (
        config.call_duration
        * config.media_scale
        * get_profile(config.impairment).volume_factor()
    )
    costmodel.get_store(config.calibration_file).update_from_run(
        run.stage_stats,
        backend,
        cell=costmodel.cell_key(app, network.value, config.impairment),
        wall_seconds=wall_seconds,
        units=units,
    )


@dataclass
class MatrixResult:
    """Aggregates for a full experiment matrix, keyed by app."""

    per_app: Dict[str, ExperimentAggregate]
    config: ExperimentConfig

    def apps(self) -> List[str]:
        return list(self.per_app)

    def summaries(self) -> List[ComplianceSummary]:
        return [agg.summary for agg in self.per_app.values() if agg.summary]


def run_matrix(
    apps: Sequence[str] = APP_NAMES,
    networks: Sequence[NetworkCondition] = tuple(NetworkCondition),
    config: ExperimentConfig = ExperimentConfig(),
    workers: Optional[int] = 1,
) -> MatrixResult:
    """Run the full experiment matrix and merge per-app aggregates.

    ``workers`` selects the executor: ``1`` (the default) runs every cell
    in-process, ``N > 1`` schedules cells onto a process pool of ``N``
    workers, and ``None`` auto-sizes the pool to ``os.cpu_count()``.  The
    result is bit-identical regardless of ``workers`` — cells are merged
    in their enumeration order, never in completion order.
    """
    from repro.experiments.parallel import run_matrix_parallel

    return run_matrix_parallel(apps, networks, config, workers=workers)
