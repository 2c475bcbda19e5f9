"""Composable streaming pipeline: stage protocol, composer, adapters.

The batch entry points across the codebase (``run_cell_pipeline``, the
CLI, the conformance tooling) are thin wrappers over the pieces here, so
batch and streaming execution share one implementation per layer.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.core.checker import ComplianceChecker
from repro.core.verdict import MessageVerdict
from repro.dpi.engine import DpiEngine, DpiResult
from repro.packets.packet import PacketRecord
from repro.pipeline.stage import (
    DEFAULT_CHUNK_SIZE,
    Pipeline,
    Stage,
    StageStats,
    merge_stage_stats,
)
from repro.pipeline.stages import (
    CheckStage,
    DpiStage,
    FilterStage,
    ordered_verdicts,
)

__all__ = [
    "CheckStage",
    "DEFAULT_CHUNK_SIZE",
    "DpiStage",
    "FilterStage",
    "Pipeline",
    "Stage",
    "StageStats",
    "merge_stage_stats",
    "ordered_verdicts",
    "run_streaming",
]


def run_streaming(
    records: Iterable[PacketRecord],
    engine: DpiEngine,
    checker: ComplianceChecker,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Tuple[DpiResult, List[MessageVerdict], List[StageStats]]:
    """Stream pre-filtered *records* through DPI and compliance checking.

    Returns the batch-shaped ``DpiResult``, the verdicts restored to
    ``ComplianceChecker.check`` order, and the per-stage instrumentation.
    The conformance differ uses this as its streaming engine
    configuration: the outputs must be bit-identical to the batch path.
    ``chunk_size=1`` reproduces the historical per-record dispatch.

    A thin adapter over a filterless :class:`repro.service.AnalysisSession`
    (imported lazily; the service package depends on this one), so batch
    helpers and the live service share a single execution path.
    """
    from repro.service.session import AnalysisSession

    session = AnalysisSession(engine=engine, checker=checker, chunk_size=chunk_size)
    session.feed(records)
    result = session.close()
    return result.dpi, result.verdicts, list(result.stage_stats.values())
