"""The compliance checker: applies the five-criterion model to every
extracted message, with session context for the cross-message rules."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.core.quic_rules import check_quic
from repro.core.rtcp_rules import check_rtcp
from repro.core.rtp_rules import check_rtp
from repro.core.stun_rules import StunSessionContext, check_stun
from repro.core.verdict import MessageVerdict, Violation
from repro.dpi.messages import DatagramAnalysis, ExtractedMessage, Protocol


class ComplianceChecker:
    """Evaluates extracted messages against their protocol specifications.

    ``sequential=True`` (the paper's methodology) stops at the first failed
    criterion per message; ``sequential=False`` collects every violation,
    which the ablation benchmarks use.

    RFC 3550 §6.1's rule that every RTCP compound begins with an SR or RR
    is not applied, as in the paper: real implementations send standalone
    feedback packets per RFC 5506's reduced-size profile, and the rule
    would flag applications the paper reports as RTCP-compliant.
    """

    def __init__(self, sequential: bool = True):
        self._sequential = sequential

    def check(self, messages: Sequence[ExtractedMessage]) -> List[MessageVerdict]:
        """Judge a whole session's messages (context rules need all of them)."""
        stun_context = StunSessionContext(
            [m for m in messages if m.protocol is Protocol.STUN_TURN]
        )
        return [
            MessageVerdict(
                message=extracted,
                violations=tuple(self._violations(extracted, stun_context)),
            )
            for extracted in messages
        ]

    def _violations(
        self, extracted: ExtractedMessage, stun_context: StunSessionContext
    ) -> Sequence[Violation]:
        """One message's violations (shared by batch and streaming modes)."""
        if extracted.protocol is Protocol.STUN_TURN:
            return check_stun(extracted, stun_context, self._sequential)
        if extracted.protocol is Protocol.RTP:
            return check_rtp(extracted, self._sequential)
        if extracted.protocol is Protocol.RTCP:
            return check_rtcp(extracted, self._sequential)
        if extracted.protocol is Protocol.QUIC:
            return check_quic(extracted, self._sequential)
        return []  # pragma: no cover - exhaustive over Protocol


#: A verdict with the global index of its message in analysis order.
IndexedVerdict = Tuple[int, MessageVerdict]


class CheckStage:
    """Five-criterion compliance checking (§4.2) over datagram analyses.

    STUN/TURN rules need session context (transaction pairing, allocate
    ordering) that only exists once the whole session has been seen, so
    those messages are deferred to :meth:`flush`; everything else is
    judged the moment its datagram arrives.  Verdicts carry the global
    message index they were fed at, so sorting the collected pairs by
    index reproduces ``ComplianceChecker.check``'s output order exactly,
    while order-insensitive aggregators consume them as they come.
    """

    name = "check"

    def __init__(self, checker: ComplianceChecker):
        self._checker = checker
        self._index = 0
        self._deferred: List[Tuple[int, ExtractedMessage]] = []
        self._flushed = False
        # STUN context for non-deferred checks is empty by construction;
        # built once here so no datagram allocates it.
        self._empty_context = StunSessionContext([])

    def process_chunk(
        self, analyses: Iterable[DatagramAnalysis]
    ) -> List[IndexedVerdict]:
        """Judge each analysis's messages (offset order, as DPI emits them).

        Returns ``(global_index, verdict)`` pairs for every message that
        could be judged immediately; STUN/TURN verdicts arrive at flush.
        """
        if self._flushed:
            raise RuntimeError("process_chunk() after flush()")
        checker = self._checker
        sequential = checker._sequential
        context = self._empty_context
        deferred = self._deferred
        index = self._index
        out: List[IndexedVerdict] = []
        stun, rtp = Protocol.STUN_TURN, Protocol.RTP
        for analysis in analyses:
            for extracted in analysis.messages:
                protocol = extracted.protocol
                if protocol is stun:
                    deferred.append((index, extracted))
                elif protocol is rtp:
                    # RTP rules read no session context: the _violations
                    # hop is skipped.
                    out.append((
                        index,
                        MessageVerdict(
                            message=extracted,
                            violations=tuple(check_rtp(extracted, sequential)),
                        ),
                    ))
                else:
                    violations = tuple(checker._violations(extracted, context))
                    out.append((
                        index,
                        MessageVerdict(message=extracted, violations=violations),
                    ))
                index += 1
        self._index = index
        return out

    def flush(self) -> List[IndexedVerdict]:
        """Judge the deferred STUN/TURN messages with full session context."""
        if self._flushed:
            return []
        self._flushed = True
        context = StunSessionContext([m for _, m in self._deferred])
        checker = self._checker
        out = [
            (
                index,
                MessageVerdict(
                    message=extracted,
                    violations=tuple(checker._violations(extracted, context)),
                ),
            )
            for index, extracted in self._deferred
        ]
        self._deferred = []
        return out

    def buffered(self) -> int:
        """STUN/TURN messages held back for session-context checks."""
        return len(self._deferred)
