"""Human-readable dissection of RTC datagrams.

A Wireshark-flavoured text rendering of what the DPI found in a datagram:
the proprietary prefix (hexdumped), every extracted message with its parsed
fields, trailers, and the compliance verdict.  Used by the ``dissect`` CLI
command and handy in notebooks when investigating a single packet.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core import ComplianceChecker
from repro.core.verdict import MessageVerdict
from repro.dpi.messages import DatagramAnalysis, ExtractedMessage, Protocol
from repro.protocols.quic.header import QuicHeader
from repro.protocols.rtcp.packets import RtcpPacket
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.constants import attribute_name
from repro.protocols.stun.message import ChannelData, StunMessage
from repro.utils.hexdump import hexdump


def dissect_datagram(
    analysis: DatagramAnalysis,
    verdicts: Optional[Sequence[MessageVerdict]] = None,
) -> str:
    """Render one analyzed datagram as indented text."""
    record = analysis.record
    lines = [
        f"Datagram @ {record.timestamp:.6f}s  "
        f"{record.src_ip}:{record.src_port} -> {record.dst_ip}:{record.dst_port}  "
        f"{len(record.payload)} bytes  [{analysis.classification.value}]"
    ]
    header = analysis.proprietary_header
    if header:
        lines.append(f"  Proprietary header ({len(header)} bytes):")
        lines.extend("    " + line for line in hexdump(header).splitlines())
    verdict_by_id = {}
    if verdicts:
        verdict_by_id = {id(v.message): v for v in verdicts}
    if not analysis.messages:
        lines.append("  No recognizable protocol message.")
    for message in analysis.messages:
        lines.extend(_dissect_message(message))
        verdict = verdict_by_id.get(id(message))
        if verdict is not None:
            if verdict.compliant:
                lines.append("    Compliance: COMPLIANT")
            else:
                lines.append(f"    Compliance: NON-COMPLIANT — "
                             f"{verdict.first_violation}")
    return "\n".join(lines)


def _dissect_message(extracted: ExtractedMessage) -> List[str]:
    label = extracted.protocol.value.upper().replace("_", "/")
    lines = [f"  {label} message @ offset {extracted.offset}, "
             f"{extracted.length} bytes"]
    message = extracted.message
    if isinstance(message, StunMessage):
        lines.extend(_dissect_stun(message))
    elif isinstance(message, ChannelData):
        lines.append(f"    ChannelData channel=0x{message.channel:04X} "
                     f"({len(message.data)} data bytes)")
    elif isinstance(message, RtpPacket):
        lines.extend(_dissect_rtp(message))
    elif isinstance(message, RtcpPacket):
        lines.extend(_dissect_rtcp(message))
    elif isinstance(message, QuicHeader):
        lines.extend(_dissect_quic(message))
    if extracted.trailer:
        lines.append(f"    Trailer ({len(extracted.trailer)} bytes): "
                     f"{extracted.trailer.hex()}")
    return lines


def _dissect_stun(message: StunMessage) -> List[str]:
    name = message.type_name or "UNDEFINED"
    flavour = "classic/RFC3489" if message.classic else "RFC5389/8489"
    lines = [
        f"    Type: 0x{message.msg_type:04X} ({name}), {flavour}",
        f"    Transaction ID: {message.transaction_id.hex()}",
    ]
    for attribute in message.attributes:
        attr_label = attribute_name(attribute.attr_type) or "UNDEFINED"
        preview = attribute.value[:16].hex()
        if len(attribute.value) > 16:
            preview += "…"
        lines.append(
            f"    Attribute 0x{attribute.attr_type:04X} ({attr_label}), "
            f"{len(attribute.value)} bytes: {preview}"
        )
    return lines


def _dissect_rtp(packet: RtpPacket) -> List[str]:
    lines = [
        f"    PT={packet.payload_type}  seq={packet.sequence_number}  "
        f"ts={packet.timestamp}  ssrc=0x{packet.ssrc:08X}"
        f"{'  M' if packet.marker else ''}"
        f"{'  P(' + str(packet.padding_length) + ')' if packet.padding_length else ''}",
    ]
    if packet.csrcs:
        lines.append(f"    CSRCs: {[hex(c) for c in packet.csrcs]}")
    extension = packet.extension
    if extension is not None:
        lines.append(f"    Extension profile=0x{extension.profile:04X} "
                     f"({len(extension.data)} bytes)")
        for element in extension.elements():
            lines.append(f"      element id={element.ext_id} "
                         f"len={element.declared_length} "
                         f"data={element.data.hex()}")
    lines.append(f"    Payload: {len(packet.payload)} bytes")
    return lines


def _dissect_rtcp(packet: RtcpPacket) -> List[str]:
    from repro.protocols.rtcp.constants import RTCP_TYPE_NAMES
    name = RTCP_TYPE_NAMES.get(packet.packet_type, "UNDEFINED")
    lines = [
        f"    PT={packet.packet_type} ({name})  count/fmt={packet.header.count}  "
        f"length={packet.header.wire_length} bytes",
    ]
    if packet.ssrc is not None:
        lines.append(f"    Sender SSRC: 0x{packet.ssrc:08X}")
    return lines


def _dissect_quic(header: QuicHeader) -> List[str]:
    if header.is_version_negotiation:
        kind = "Version Negotiation"
    elif header.is_long:
        kind = f"Long ({header.long_type.name})"
    else:
        kind = "Short (1-RTT)"
    lines = [f"    {kind}  dcid={header.dcid.hex() or '-'}"]
    if header.is_long:
        lines.append(f"    version=0x{header.version:08X}  "
                     f"scid={header.scid.hex() or '-'}")
        if header.payload_length is not None:
            lines.append(f"    declared length={header.payload_length}")
    return lines


def dissect_records(records, max_offset: int = 200,
                    limit: Optional[int] = None) -> str:
    """End-to-end helper: DPI + compliance + dissection for a record list."""
    from repro.dpi import DpiEngine

    result = DpiEngine(
        max_offset=max_offset, backend="columnar"
    ).analyze_records(records)
    verdicts = ComplianceChecker().check(result.messages())
    blocks = []
    for analysis in result.analyses[:limit]:
        blocks.append(dissect_datagram(analysis, verdicts))
    return "\n\n".join(blocks)
