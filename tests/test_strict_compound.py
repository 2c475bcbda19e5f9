"""RTCP compounds under the default checker, and STUN attribute maxima."""

from repro.core import ComplianceChecker
from repro.core.stun_rules import StunSessionContext, check_stun
from repro.dpi.messages import ExtractedMessage, Protocol
from repro.packets.packet import PacketRecord
from repro.protocols.rtcp.packets import FeedbackPacket
from repro.protocols.stun.attributes import StunAttribute
from repro.protocols.stun.constants import AttributeType
from repro.protocols.stun.message import StunMessage


def rtcp_datagram(packets):
    payload = b"".join(p.build() for p in packets)
    record = PacketRecord(timestamp=1.0, src_ip="1.1.1.1", src_port=1,
                          dst_ip="2.2.2.2", dst_port=2, transport="UDP",
                          payload=payload)
    messages = []
    offset = 0
    for packet in packets:
        raw = packet.build()
        messages.append(ExtractedMessage(
            protocol=Protocol.RTCP, offset=offset, length=len(raw),
            message=packet, record=record,
        ))
        offset += len(raw)
    return messages


class TestStrictCompound:
    """RFC 3550's compound-head rule is not applied, as in the paper."""

    def test_off_by_default(self):
        messages = rtcp_datagram([
            FeedbackPacket(packet_type=205, fmt=1, sender_ssrc=1,
                           media_ssrc=2).to_packet(),
        ])
        verdicts = ComplianceChecker().check(messages)
        assert verdicts[0].compliant


class TestAttributeMaxLengths:
    def _judge(self, attr):
        message = StunMessage(msg_type=0x0001, transaction_id=bytes(12),
                              attributes=[attr])
        raw = message.build()
        record = PacketRecord(timestamp=1.0, src_ip="1.1.1.1", src_port=1,
                              dst_ip="2.2.2.2", dst_port=2, transport="UDP",
                              payload=raw)
        extracted = ExtractedMessage(protocol=Protocol.STUN_TURN, offset=0,
                                     length=len(raw), message=message,
                                     record=record)
        return check_stun(extracted, StunSessionContext([extracted]))

    def test_oversized_username_flagged(self):
        violations = self._judge(
            StunAttribute(int(AttributeType.USERNAME), b"u" * 514)
        )
        assert violations[0].code == "bad-attribute-length"

    def test_maximum_username_ok(self):
        assert self._judge(
            StunAttribute(int(AttributeType.USERNAME), b"u" * 513)
        ) == []

    def test_oversized_software_flagged(self):
        violations = self._judge(
            StunAttribute(int(AttributeType.SOFTWARE), b"s" * 800)
        )
        assert violations[0].code == "bad-attribute-length"
