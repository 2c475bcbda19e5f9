"""The three stages :class:`~repro.service.AnalysisSession` drives.

Each layer has one batch entry point and one incremental class, and the
incremental class is the stage: :class:`FilterStage` (§3.2),
:class:`DpiStage` (§4.1) and :class:`CheckStage` (§4.2).  Each has
``process_chunk`` for a bounded batch, ``flush`` at close, ``evict``
(filter and DPI) for an eviction sweep, and ``buffered`` for the
session's high-water mark.  The batch entry points
(``TwoStageFilter.apply``, ``DpiEngine.analyze_records``) are one chunk
plus a flush of the same class; ``ComplianceChecker.check`` is the
batch reference the check stage is tested against.
"""

from repro.core.checker import CheckStage
from repro.dpi.engine import DpiStage
from repro.filtering.online import FilterStage

__all__ = ["FilterStage", "DpiStage", "CheckStage"]
