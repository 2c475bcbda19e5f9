"""The stages and per-stage instrumentation of the pipeline.

:class:`repro.service.AnalysisSession` drives the stages here in the
paper's fixed order — filter (§3.2) → DPI (§4.1) → check (§4.2) — and
keeps one :class:`StageStats` per stage.  The batch entry points across
the codebase (``run_cell_pipeline``, the CLI, the conformance tooling)
feed such a session and read its result, so batch and streaming
execution share one implementation per layer.
"""

from repro.pipeline.stage import StageStats, merge_stage_stats
from repro.pipeline.stages import CheckStage, DpiStage, FilterStage

__all__ = [
    "CheckStage",
    "DpiStage",
    "FilterStage",
    "StageStats",
    "merge_stage_stats",
]
