"""The five-criterion compliance model (paper §4.2) and its metrics (§5.1).

A message is compliant only if it passes, in order:

1. **Message type definition** — the type is defined in a public spec.
2. **Header field validity** — all header fields are syntactically and
   semantically valid.
3. **Attribute type validity** — every TLV attribute (or RTP extension
   profile / RTCP item) is publicly defined.
4. **Attribute value validity** — each defined attribute's value obeys the
   spec's structure, lengths and allowed-placement rules.
5. **Syntax & semantic integrity** — cross-field and cross-message
   behaviour (transaction patterns, trailers, SRTCP framing) is coherent.

Evaluation is sequential: the first failed criterion classifies the message
as non-compliant and later criteria are skipped (avoiding cascading errors),
matching the paper's methodology.
"""

from repro.core.checker import CheckStage, ComplianceChecker
from repro.core.metrics import (
    ComplianceSummary,
    StreamingSummary,
    TypeComplianceEntry,
)
from repro.core.verdict import Criterion, MessageVerdict, Violation

__all__ = [
    "CheckStage",
    "ComplianceChecker",
    "ComplianceSummary",
    "StreamingSummary",
    "TypeComplianceEntry",
    "Criterion",
    "MessageVerdict",
    "Violation",
]
