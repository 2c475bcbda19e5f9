"""Fuzz and failure-injection tests: the pipeline must never crash.

A compliance tool is pointed at hostile, malformed, and truncated traffic
by design — every layer must degrade gracefully (reject, classify as
proprietary, or flag) rather than raise unexpected exceptions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComplianceChecker
from repro.utils.rand import DeterministicRandom
from repro.dpi import DatagramClass, DpiEngine
from repro.packets.packet import PacketRecord
from repro.protocols.quic.header import QuicParseError, parse_datagram
from repro.protocols.rtcp.packets import RtcpParseError, parse_compound
from repro.protocols.rtp.header import RtpPacket, RtpParseError
from repro.protocols.stun.message import ChannelData, StunMessage, StunParseError


def udp(payload, t=1.0, sport=1):
    return PacketRecord(timestamp=t, src_ip="10.0.0.1", src_port=sport,
                        dst_ip="20.0.0.2", dst_port=2, transport="UDP",
                        payload=payload)


class TestParserFuzz:
    """Parsers may raise only their declared error types."""

    @given(st.binary(max_size=200))
    def test_stun_parse(self, data):
        try:
            StunMessage.parse(data)
        except StunParseError:
            pass

    @given(st.binary(max_size=200))
    def test_channeldata_parse(self, data):
        try:
            ChannelData.parse(data)
        except StunParseError:
            pass

    @given(st.binary(max_size=200))
    def test_rtp_parse(self, data):
        try:
            RtpPacket.parse(data, strict=False)
        except RtpParseError:
            pass

    @given(st.binary(max_size=200))
    def test_rtcp_compound_parse(self, data):
        try:
            parse_compound(data, strict=False)
        except RtcpParseError:
            pass

    @given(st.binary(max_size=200))
    def test_quic_parse(self, data):
        try:
            parse_datagram(data)
        except QuicParseError:
            pass


class TestTruncationInjection:
    """Every truncation point of a valid message must be handled."""

    def test_stun_all_truncations(self):
        from repro.protocols.stun.attributes import StunAttribute
        raw = StunMessage(
            msg_type=0x0003, transaction_id=bytes(12),
            attributes=[StunAttribute(0x0019, bytes(4)),
                        StunAttribute(0x0006, b"user:name")],
        ).build()
        for cut in range(len(raw)):
            try:
                StunMessage.parse(raw[:cut])
            except StunParseError:
                pass

    def test_rtp_all_truncations(self):
        from repro.protocols.rtp.extensions import build_one_byte_extension
        raw = RtpPacket(
            payload_type=96, sequence_number=1, timestamp=2, ssrc=3,
            payload=bytes(30), csrcs=[7, 8],
            extension=build_one_byte_extension([(1, b"\x01")]),
        ).build()
        for cut in range(len(raw)):
            try:
                RtpPacket.parse(raw[:cut], strict=False)
            except RtpParseError:
                pass

    def test_bitflip_injection_stun(self):
        raw = bytearray(StunMessage(msg_type=0x0001,
                                    transaction_id=bytes(12)).build())
        rng = DeterministicRandom("fuzz/stun-bitflip")
        for _ in range(200):
            i = rng.randrange(len(raw))
            bit = 1 << rng.randrange(8)
            mutated = bytes(raw[:i]) + bytes([raw[i] ^ bit]) + bytes(raw[i + 1:])
            try:
                StunMessage.parse(mutated)
            except StunParseError:
                pass


class TestPipelineFuzz:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=300), min_size=1, max_size=20))
    def test_dpi_never_crashes(self, payloads):
        records = [udp(p, t=float(i), sport=1000 + i % 3)
                   for i, p in enumerate(payloads)]
        result = DpiEngine().analyze_records(records)
        assert len(result.analyses) == len(records)
        # Checker must survive whatever the DPI surfaced.
        ComplianceChecker().check(result.messages())

    def test_random_noise_is_fully_proprietary(self):
        rng = DeterministicRandom("fuzz/noise")
        records = [
            udp(rng.rand_bytes(rng.randint(1, 600)), t=float(i))
            for i in range(200)
        ]
        result = DpiEngine().analyze_records(records)
        fully = sum(1 for a in result.analyses
                    if a.classification is DatagramClass.FULLY_PROPRIETARY)
        # Random bytes must almost never be classified as protocol traffic.
        assert fully >= 195

    def test_message_embedded_at_any_offset_is_found(self):
        """The DPI's core property: offset-invariance up to k."""
        from repro.protocols.stun.attributes import StunAttribute
        rng = DeterministicRandom("fuzz/offsets")
        for offset in (0, 1, 7, 24, 64, 150, 199):
            message = StunMessage(
                msg_type=0x0001, transaction_id=rng.transaction_id(),
                attributes=[StunAttribute(0x8022, b"probe")],
            )
            prefix = rng.rand_bytes(offset)
            # Ensure the prefix cannot itself contain the cookie by chance.
            record = udp(prefix + message.build())
            result = DpiEngine(max_offset=200).analyze_records([record])
            found = [m for m in result.messages()
                     if getattr(m.message, "msg_type", None) == 0x0001]
            assert found, f"STUN at offset {offset} not found"
            assert found[0].offset == offset

    def test_pcap_reader_rejects_garbage(self, tmp_path):
        from repro.packets.pcap import PcapFormatError, read_pcap
        path = tmp_path / "garbage.pcap"
        path.write_bytes(DeterministicRandom("fuzz/garbage-pcap").rand_bytes(500))
        with pytest.raises(PcapFormatError):
            read_pcap(path)
