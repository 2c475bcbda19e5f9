"""Tests for the DPI extensions: TCP analysis."""

from repro.dpi import Protocol
from repro.dpi.tcp import analyze_tcp_records
from repro.packets.packet import PacketRecord
from repro.protocols.rtcp.packets import ReceiverReport
from repro.protocols.rtp.header import RtpPacket
from repro.protocols.stun.attributes import StunAttribute
from repro.protocols.stun.message import StunMessage


def tcp_record(t, payload, sport=50000, src="10.0.0.1", dst="20.0.0.2"):
    return PacketRecord(
        timestamp=t, src_ip=src, src_port=sport, dst_ip=dst, dst_port=443,
        transport="TCP", payload=payload,
    )


class TestTcpAnalysis:
    def test_stun_over_tcp(self):
        messages = [
            StunMessage(msg_type=0x0001, transaction_id=bytes([i] * 12),
                        attributes=[StunAttribute(0x8022, b"agent")])
            for i in range(3)
        ]
        # Back-to-back messages split arbitrarily across segments.
        stream = b"".join(m.build() for m in messages)
        records = [
            tcp_record(1.0, stream[:30]),
            tcp_record(1.1, stream[30:65]),
            tcp_record(1.2, stream[65:]),
        ]
        analyses = analyze_tcp_records(records)
        found = [m for a in analyses for m in a.messages]
        assert len(found) == 3
        assert all(m.protocol is Protocol.STUN_TURN for m in found)

    def test_rfc4571_framed_rtp(self):
        packets = [
            RtpPacket(payload_type=96, sequence_number=i, timestamp=i * 160,
                      ssrc=0xAA, payload=bytes(50)).build()
            for i in range(4)
        ]
        stream = b"".join(len(p).to_bytes(2, "big") + p for p in packets)
        analyses = analyze_tcp_records([tcp_record(1.0, stream)])
        found = [m for a in analyses for m in a.messages]
        assert len(found) == 4
        assert all(m.protocol is Protocol.RTP for m in found)
        assert [m.message.sequence_number for m in found] == [0, 1, 2, 3]

    def test_rfc4571_framed_rtcp(self):
        packet = ReceiverReport(ssrc=5).to_packet().build()
        stream = len(packet).to_bytes(2, "big") + packet
        analyses = analyze_tcp_records([tcp_record(1.0, stream)])
        found = [m for a in analyses for m in a.messages]
        assert len(found) == 1
        assert found[0].protocol is Protocol.RTCP

    def test_opaque_tls_yields_nothing(self):
        from repro.protocols.tls.client_hello import build_client_hello
        records = [tcp_record(1.0, build_client_hello("signal.example.com"))]
        analyses = analyze_tcp_records(records)
        assert not any(a.messages for a in analyses)
        assert analyses[0].opaque_bytes > 0

    def test_directions_analyzed_separately(self):
        request = StunMessage(msg_type=0x0001, transaction_id=bytes(12)).build()
        response = StunMessage(msg_type=0x0101, transaction_id=bytes(12)).build()
        records = [
            tcp_record(1.0, request),
            PacketRecord(timestamp=1.1, src_ip="20.0.0.2", src_port=443,
                         dst_ip="10.0.0.1", dst_port=50000, transport="TCP",
                         payload=response),
        ]
        analyses = analyze_tcp_records(records)
        assert len(analyses) == 2
        types = sorted(m.message.msg_type for a in analyses for m in a.messages)
        assert types == [0x0001, 0x0101]

    def test_udp_records_ignored(self):
        record = PacketRecord(timestamp=1.0, src_ip="1.1.1.1", src_port=1,
                              dst_ip="2.2.2.2", dst_port=2, transport="UDP",
                              payload=bytes(40))
        assert analyze_tcp_records([record]) == []

    def test_mixed_stun_and_framed_media(self):
        stun = StunMessage(msg_type=0x0003, transaction_id=bytes(12)).build()
        rtp = RtpPacket(payload_type=96, sequence_number=1, timestamp=2,
                        ssrc=3, payload=bytes(20)).build()
        stream = stun + len(rtp).to_bytes(2, "big") + rtp
        analyses = analyze_tcp_records([tcp_record(1.0, stream)])
        protocols = [m.protocol for a in analyses for m in a.messages]
        assert protocols == [Protocol.STUN_TURN, Protocol.RTP]
