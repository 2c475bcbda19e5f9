"""The stages and per-stage instrumentation of the pipeline.

:class:`repro.service.AnalysisSession` drives the stages here in the
paper's fixed order — filter (§3.2) → DPI (§4.1) → check (§4.2) — and
keeps one :class:`StageStats` per stage.  The batch entry points across
the codebase (``run_cell_pipeline``, ``run_streaming``, the CLI, the
conformance tooling) are thin wrappers over such a session, so batch
and streaming execution share one implementation per layer.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.core.checker import ComplianceChecker
from repro.core.verdict import MessageVerdict
from repro.dpi.engine import DpiEngine, DpiResult
from repro.packets.packet import PacketRecord
from repro.pipeline.stage import StageStats, merge_stage_stats
from repro.pipeline.stages import CheckStage, DpiStage, FilterStage

__all__ = [
    "CheckStage",
    "DpiStage",
    "FilterStage",
    "StageStats",
    "merge_stage_stats",
    "run_streaming",
]


def run_streaming(
    records: Iterable[PacketRecord],
    engine: DpiEngine,
    checker: ComplianceChecker,
) -> Tuple[DpiResult, List[MessageVerdict], List[StageStats]]:
    """Stream pre-filtered *records* through DPI and compliance checking.

    Returns the batch-shaped ``DpiResult``, the verdicts restored to
    ``ComplianceChecker.check`` order, and the per-stage instrumentation.
    The conformance differ uses this as its streaming engine
    configuration: the outputs must be bit-identical to the batch path.

    A thin adapter over a filterless :class:`repro.service.AnalysisSession`
    (imported lazily; the service package depends on this one), so batch
    helpers and the live service share a single execution path.
    """
    from repro.service.session import AnalysisSession

    session = AnalysisSession(engine=engine, checker=checker)
    session.feed(records)
    result = session.close()
    return result.dpi, result.verdicts, list(result.stage_stats.values())
