"""Two-stage deep packet inspection (paper §4.1, Algorithm 1).

Stage one slides a per-protocol structural matcher over every UDP payload
offset up to ``k`` (default 200), surfacing candidate messages even when
they hide behind proprietary headers.  Stage two applies protocol-specific
validation with per-stream context (sequence continuity, transaction
pairing, QUIC connection IDs) to kill false positives, then resolves byte
ownership between overlapping candidates.
"""

from repro.dpi.columnar import ColumnarScanner, ColumnarStats
from repro.dpi.engine import (
    DEFAULT_MAX_OFFSET,
    DpiEngine,
    DpiResult,
    DpiStage,
    DpiStats,
)
from repro.dpi.messages import (
    DatagramAnalysis,
    DatagramClass,
    ExtractedMessage,
    Protocol,
)

__all__ = [
    "DEFAULT_MAX_OFFSET",
    "ColumnarScanner",
    "ColumnarStats",
    "DpiEngine",
    "DpiResult",
    "DpiStage",
    "DpiStats",
    "DatagramAnalysis",
    "DatagramClass",
    "ExtractedMessage",
    "Protocol",
]
