"""End-to-end experiment execution.

One *experiment* is the full pipeline for one (app, network, repeat) cell:
simulate the call, filter unrelated traffic, run the DPI, judge compliance.
A *matrix* is the paper's 6 apps × 3 network configurations × N repeats,
run by :func:`repro.experiments.parallel.run_matrix`.

Aggregates keep only counters and verdict summaries, so a full matrix stays
small in memory even for long calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.core import ComplianceChecker, ComplianceSummary
from repro.core.metrics import (
    MAX_EXAMPLE_VIOLATIONS,
    TypeComplianceEntry,
    VolumeCompliance,
)
from repro.dpi import DatagramClass, DpiEngine, Protocol
from repro.filtering import TwoStageFilter
from repro.filtering.pipeline import FilterResult, StageCounts
from repro.pipeline import StageStats, merge_stage_stats
from repro.service.session import AnalysisSession, SessionResult


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters for one experiment cell (or a whole matrix).

    ``impairment`` names a :mod:`repro.netem` profile applied to every
    cell's record stream post-synthesis — the fourth matrix axis next
    to app, network, and repeat.  Outputs under any profile remain
    bit-identical across execution shapes (batch, streaming, production
    or reference DPI engine), because the impaired records are produced
    once by ``AppSimulator.iter_records`` before the pipeline ever runs.
    """

    call_duration: float = 30.0
    media_scale: float = 0.5
    repeats: int = 1
    seed: int = 0
    max_offset: int = 200
    include_background: bool = True
    impairment: str = "none"

    def __post_init__(self):
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
    #: Per-stage streaming instrumentation, keyed by stage name
    #: (records in/out, wall time, peak buffered); summed across cells.
    stage_stats: Dict[str, StageStats] = field(default_factory=dict)
    #: Cells folded into this aggregate (divisor for per-cell averages).
    cells: int = 1

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
        merge_stage_stats(self.stage_stats, other.stage_stats.values())
        self.cells += other.cells

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
) -> SessionResult:
    """Simulate one cell and stream it through filter → DPI → checker.

    The whole cell runs in one :class:`repro.service.AnalysisSession`:
    records flow from ``AppSimulator.iter_records`` through the filter,
    DPI and check stages in bounded chunks, and the session's own
    result comes back.  ``engine`` defaults to a fresh production engine
    at ``config.max_offset``; the conformance tooling passes its own
    engine configurations.  Parallelism lives one level up, across cells
    (:func:`repro.experiments.parallel.run_matrix`).
    """
    simulator = get_simulator(app)
    call_config = _cell_config(network, config, call_index)
    if engine is None:
        engine = DpiEngine(max_offset=config.max_offset, backend="columnar")
    session = AnalysisSession(
        window=call_config.window(), engine=engine, checker=checker
    )
    session.feed(simulator.iter_records(call_config))
    return session.close()


def run_experiment(
    app: str,
    network: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
    call_index: int = 0,
) -> ExperimentAggregate:
    """Run one (app, network, call) cell through the full pipeline."""
    run = run_cell_pipeline(app, network, config, call_index)
    filter_result = run.filter_result
    dpi = run.dpi

    aggregate = ExperimentAggregate(app=app)
    aggregate.raw = filter_result.raw
    aggregate.stage1_removed = filter_result.stage1_removed
    aggregate.stage2_removed = filter_result.stage2_removed
    aggregate.kept = filter_result.kept
    aggregate.class_counts = dpi.by_class()
    aggregate.protocol_counts = dpi.protocol_counts()
    aggregate.summary = run.summary(app)
    aggregate.stage_stats = run.stage_stats
    if filter_result.evaluation is not None:
        aggregate.filter_precision = filter_result.evaluation.precision
        aggregate.filter_recall = filter_result.evaluation.recall
    return aggregate


@dataclass
class MatrixResult:
    """Aggregates for a full experiment matrix, keyed by app."""

    per_app: Dict[str, ExperimentAggregate]
    config: ExperimentConfig

    def apps(self) -> List[str]:
        return list(self.per_app)

    def summaries(self) -> List[ComplianceSummary]:
        return [agg.summary for agg in self.per_app.values() if agg.summary]

