"""Two-stage unrelated-traffic filtering (paper §3.2)."""

from repro.filtering.heuristics import (
    DEFAULT_EXCLUDED_PORTS,
    LocalIpFilter,
    PortFilter,
    SniFilter,
    ThreeTupleFilter,
)
from repro.filtering.online import FilterStage
from repro.filtering.pipeline import (
    FilterEvaluation,
    FilterResult,
    StageCounts,
    TwoStageFilter,
)
from repro.filtering.timespan import TimespanFilter

__all__ = [
    "DEFAULT_EXCLUDED_PORTS",
    "LocalIpFilter",
    "PortFilter",
    "SniFilter",
    "ThreeTupleFilter",
    "FilterEvaluation",
    "FilterResult",
    "FilterStage",
    "StageCounts",
    "TwoStageFilter",
    "TimespanFilter",
]
