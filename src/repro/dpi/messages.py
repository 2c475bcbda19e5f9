"""Data model shared by the DPI engine and the compliance layer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.packets.packet import Direction, PacketRecord
from repro.protocols.quic.header import QuicHeader
from repro.protocols.rtcp.packets import RtcpPacket
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.message import ChannelData, StunMessage


class Protocol(enum.Enum):
    """The protocol families the study covers (STUN and TURN are joint)."""

    STUN_TURN = "stun_turn"
    RTP = "rtp"
    RTCP = "rtcp"
    QUIC = "quic"


class DatagramClass(enum.Enum):
    """Figure 3's three datagram categories."""

    STANDARD = "standard"                      # messages from byte 0
    PROPRIETARY_HEADER = "proprietary_header"  # message(s) behind a prefix
    FULLY_PROPRIETARY = "fully_proprietary"    # no recognizable message


@dataclass(slots=True)
class ExtractedMessage:
    """One validated protocol message found inside a datagram.

    ``message`` is the parsed object (StunMessage, ChannelData, RtpPacket,
    RtcpPacket, or QuicHeader); ``trailer`` holds bytes past the declared
    message length that belong to this message for compliance purposes
    (SRTCP trailers, Discord's direction bytes).
    """

    protocol: Protocol
    offset: int
    length: int
    message: Any
    record: PacketRecord
    trailer: bytes = b""

    @property
    def timestamp(self) -> float:
        return self.record.timestamp

    @property
    def direction(self) -> Direction:
        return self.record.direction

    @property
    def stream_key(self):
        return self.record.flow_key

    @property
    def end(self) -> int:
        return self.offset + self.length + len(self.trailer)

    @property
    def raw(self) -> bytes:
        return self.record.payload[self.offset:self.end]

    def type_key(self) -> Tuple[str, str]:
        """(protocol, message-type label) — the unit of Table 3's metric."""
        message = self.message
        if isinstance(message, StunMessage):
            return (self.protocol.value, f"0x{message.msg_type:04X}")
        if isinstance(message, ChannelData):
            return (self.protocol.value, "ChannelData")
        if isinstance(message, RtpPacket):
            return (self.protocol.value, str(message.payload_type))
        if isinstance(message, RtcpPacket):
            return (self.protocol.value, str(message.packet_type))
        if isinstance(message, QuicHeader):
            if message.is_long:
                label = (
                    "version_negotiation"
                    if message.is_version_negotiation
                    else f"long-{message.long_type.value}"
                )
            else:
                label = "short"
            return (self.protocol.value, label)
        return (self.protocol.value, type(message).__name__)


@dataclass(slots=True)
class DatagramAnalysis:
    """The DPI verdict for one UDP datagram."""

    record: PacketRecord
    messages: List[ExtractedMessage] = field(default_factory=list)
    classification: DatagramClass = DatagramClass.FULLY_PROPRIETARY

    @property
    def proprietary_header(self) -> bytes:
        """The prefix bytes preceding the first extracted message."""
        if not self.messages or self.messages[0].offset == 0:
            return b""
        return self.record.payload[: self.messages[0].offset]

    @classmethod
    def classify(cls, record: PacketRecord, messages: List[ExtractedMessage]):
        if not messages:
            classification = DatagramClass.FULLY_PROPRIETARY
        elif messages[0].offset > 0:
            classification = DatagramClass.PROPRIETARY_HEADER
        else:
            classification = DatagramClass.STANDARD
        return cls(record=record, messages=messages, classification=classification)
