"""Conventional-DPI baseline (the systems the paper's §4.1 argues against).

Classic engines (Peafowl, nDPI, L7-filter) assume standard headers at
payload offset zero and parse strictly by specification:

- messages hidden behind proprietary headers are invisible (limitation 1);
- messages with undefined types/attributes are rejected, so exactly the
  non-compliant traffic this study cares about goes unobserved
  (limitation 2);
- Peafowl additionally restricts RTP to ~30 known payload-type values
  (the restriction the paper removes).

This baseline exists so the custom engine's gains are measurable — the
comparison the paper makes qualitatively becomes a benchmark here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dpi.messages import (
    DatagramAnalysis,
    DatagramClass,
    ExtractedMessage,
    Protocol,
)
from repro.dpi.engine import DpiResult
from repro.packets.packet import PacketRecord
from repro.protocols.quic.header import QuicParseError, parse_one
from repro.protocols.rtcp.constants import RTCP_TYPE_NAMES
from repro.protocols.rtcp.packets import RtcpParseError, parse_compound
from repro.protocols.rtp.header import RtpPacket, RtpParseError, looks_like_rtp
from repro.protocols.stun.constants import (
    KNOWN_ATTRIBUTE_TYPES,
    KNOWN_MESSAGE_TYPES,
    MAGIC_COOKIE,
)
from repro.protocols.stun.message import StunMessage, StunParseError

#: Peafowl's RTP payload-type whitelist: the RFC 3551 static audio/video
#: assignments (the restriction the paper's engine removes).
PEAFOWL_PAYLOAD_TYPES = frozenset(
    {0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
     25, 26, 28, 31, 32, 33, 34}
)


class BaselineDpi:
    """Offset-zero, strict-specification DPI.

    Accepts a datagram only when a fully specification-conformant message
    starts at byte 0; everything else is unclassified.
    """

    def analyze_records(self, records: Sequence[PacketRecord]) -> DpiResult:
        result = DpiResult()
        for record in records:
            if record.transport != "UDP":
                continue
            messages = self._classify(record)
            result.analyses.append(DatagramAnalysis.classify(record, messages))
        result.analyses.sort(key=lambda a: a.record.timestamp)
        return result

    def _classify(self, record: PacketRecord) -> List[ExtractedMessage]:
        payload = record.payload
        message = self._try_stun(payload, record)
        if message is not None:
            return [message]
        messages = self._try_rtcp(payload, record)
        if messages:
            return messages
        message = self._try_rtp(payload, record)
        if message is not None:
            return [message]
        message = self._try_quic(payload, record)
        if message is not None:
            return [message]
        return []

    def _try_stun(self, payload: bytes, record) -> Optional[ExtractedMessage]:
        if len(payload) < 20:
            return None
        # Strict: magic cookie required (no RFC 3489), exact fit required.
        if int.from_bytes(payload[4:8], "big") != MAGIC_COOKIE:
            return None
        try:
            message = StunMessage.parse(payload, strict=True)
        except StunParseError:
            return None
        # Strict: only registered message and attribute types are parsed.
        if message.msg_type not in KNOWN_MESSAGE_TYPES:
            return None
        if any(a.attr_type not in KNOWN_ATTRIBUTE_TYPES for a in message.attributes):
            return None
        return ExtractedMessage(
            protocol=Protocol.STUN_TURN, offset=0,
            length=message.wire_length, message=message, record=record,
        )

    def _try_rtp(self, payload: bytes, record) -> Optional[ExtractedMessage]:
        if not looks_like_rtp(payload):
            return None
        try:
            packet = RtpPacket.parse(payload, strict=True)
        except RtpParseError:
            return None
        # Peafowl's restriction: unknown payload types are not RTP.
        if packet.payload_type not in PEAFOWL_PAYLOAD_TYPES:
            return None
        return ExtractedMessage(
            protocol=Protocol.RTP, offset=0, length=len(payload),
            message=packet, record=record,
        )

    def _try_rtcp(self, payload: bytes, record) -> List[ExtractedMessage]:
        if len(payload) < 4 or payload[0] >> 6 != 2:
            return []
        if not 200 <= payload[1] <= 207:
            return []
        try:
            # Strict: the compound must consume the datagram exactly.
            packets = parse_compound(payload, strict=True)
        except RtcpParseError:
            return []
        if any(p.packet_type not in RTCP_TYPE_NAMES for p in packets):
            return []
        messages = []
        offset = 0
        for packet in packets:
            messages.append(
                ExtractedMessage(
                    protocol=Protocol.RTCP, offset=offset,
                    length=packet.header.wire_length, message=packet,
                    record=record,
                )
            )
            offset += packet.header.wire_length
        return messages

    def _try_quic(self, payload: bytes, record) -> Optional[ExtractedMessage]:
        if not payload or payload[0] & 0xC0 != 0xC0:
            return None  # long headers only; short are undetectable statically
        try:
            header = parse_one(payload)
        except QuicParseError:
            return None
        return ExtractedMessage(
            protocol=Protocol.QUIC, offset=0, length=header.wire_length,
            message=header, record=record,
        )


@dataclass
class DpiComparison:
    """Detection-rate comparison: custom engine vs the baseline."""

    custom_messages: int
    baseline_messages: int
    custom_classified_datagrams: int
    baseline_classified_datagrams: int
    total_datagrams: int

    @property
    def message_recall_gain(self) -> float:
        if self.custom_messages == 0:
            return 0.0
        return 1.0 - self.baseline_messages / self.custom_messages

    @property
    def baseline_blind_share(self) -> float:
        """Share of datagrams the baseline cannot classify but we can."""
        if not self.total_datagrams:
            return 0.0
        return (
            self.custom_classified_datagrams - self.baseline_classified_datagrams
        ) / self.total_datagrams


def compare_engines(records: Sequence[PacketRecord]) -> DpiComparison:
    """Run both engines over *records* and tabulate the gap."""
    from repro.dpi.engine import ColumnarEngine

    custom = ColumnarEngine().analyze_records(records)
    baseline = BaselineDpi().analyze_records(records)

    def classified(result: DpiResult) -> int:
        return sum(
            1 for a in result.analyses
            if a.classification is not DatagramClass.FULLY_PROPRIETARY
        )

    return DpiComparison(
        custom_messages=len(custom.messages()),
        baseline_messages=len(baseline.messages()),
        custom_classified_datagrams=classified(custom),
        baseline_classified_datagrams=classified(baseline),
        total_datagrams=len(custom.analyses),
    )
