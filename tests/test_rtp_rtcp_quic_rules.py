"""Tests for the RTP, RTCP and QUIC compliance rules."""

import struct

import pytest

from repro.core.quic_rules import check_quic
from repro.core.rtcp_rules import check_rtcp, classify_trailer
from repro.core.rtp_rules import check_rtp
from repro.core.verdict import Criterion
from repro.dpi.messages import ExtractedMessage, Protocol
from repro.packets.packet import PacketRecord
from repro.protocols.quic.header import parse_one
from repro.protocols.rtcp.packets import (
    AppPacket,
    FeedbackPacket,
    ReceiverReport,
    RtcpHeader,
    RtcpPacket,
    SdesChunk,
    SdesItem,
    SdesPacket,
    SenderReport,
    XrBlock,
    XrPacket,
)
from repro.protocols.rtp.extensions import (
    HeaderExtension,
    build_one_byte_extension,
    build_two_byte_extension,
)
from repro.protocols.rtp.header import RtpPacket


def wrap(message, protocol, raw=b"", trailer=b""):
    record = PacketRecord(
        timestamp=1.0, src_ip="1.1.1.1", src_port=1, dst_ip="2.2.2.2",
        dst_port=2, transport="UDP", payload=raw or bytes(64),
    )
    return ExtractedMessage(protocol=protocol, offset=0,
                            length=len(record.payload) - len(trailer),
                            message=message, record=record, trailer=trailer)


def rtp(**overrides):
    defaults = dict(payload_type=96, sequence_number=1, timestamp=2,
                    ssrc=3, payload=b"x")
    defaults.update(overrides)
    return RtpPacket(**defaults)


class TestRtpRules:
    def test_plain_packet_compliant(self):
        assert not check_rtp(wrap(rtp(), Protocol.RTP))

    def test_any_payload_type_passes_criterion1(self):
        for pt in (0, 13, 20, 35, 63, 95, 127):
            assert not check_rtp(wrap(rtp(payload_type=pt), Protocol.RTP))

    def test_one_byte_extension_compliant(self):
        packet = rtp(extension=build_one_byte_extension([(1, b"\x10")]))
        assert not check_rtp(wrap(packet, Protocol.RTP))

    def test_two_byte_extension_compliant(self):
        packet = rtp(extension=build_two_byte_extension([(9, b"ab")]))
        assert not check_rtp(wrap(packet, Protocol.RTP))

    @pytest.mark.parametrize("profile", [0x8001, 0x8500, 0x8D00, 0x0084, 0xFBD2])
    def test_undefined_profile_fails(self, profile):
        packet = rtp(extension=HeaderExtension(profile=profile, data=bytes(4)))
        violations = check_rtp(wrap(packet, Protocol.RTP))
        assert violations[0].code == "undefined-extension-profile"
        assert violations[0].criterion is Criterion.ATTRIBUTE_TYPES

    def test_id_zero_with_length_fails(self):
        data = bytes([0x03]) + b"abcd" + bytes(3)
        packet = rtp(extension=HeaderExtension(profile=0xBEDE, data=data))
        violations = check_rtp(wrap(packet, Protocol.RTP))
        assert violations[0].code == "id-zero-with-length"
        assert violations[0].criterion is Criterion.ATTRIBUTE_VALUES

    def test_truncated_element_fails(self):
        # Element declares 16 bytes but the block ends after 2.
        data = bytes([0x1F, 0xAA, 0xBB, 0x00])
        packet = rtp(extension=HeaderExtension(profile=0xBEDE, data=data))
        violations = check_rtp(wrap(packet, Protocol.RTP))
        assert violations[0].code == "truncated-extension-element"

    def test_invalid_padding_fails(self):
        packet = rtp(invalid_padding=True)
        violations = check_rtp(wrap(packet, Protocol.RTP))
        assert violations[0].code == "bad-padding"
        assert violations[0].criterion is Criterion.HEADER_FIELDS

    def test_non_sequential_collects_all(self):
        data = bytes([0x03]) + b"abcd" + bytes([0x1F, 0xAA, 0xBB]) + bytes(0)
        packet = rtp(invalid_padding=True,
                     extension=HeaderExtension(profile=0xBEDE, data=data))
        violations = check_rtp(wrap(packet, Protocol.RTP), sequential=False)
        assert len(violations) >= 2


class TestRtcpTrailerClassification:
    def test_none(self):
        assert classify_trailer(b"") == "none"

    def test_srtcp_tagged(self):
        trailer = ((1 << 31) | 5).to_bytes(4, "big") + bytes(10)
        assert classify_trailer(trailer) == "srtcp"

    def test_srtcp_tagless(self):
        trailer = ((1 << 31) | 5).to_bytes(4, "big")
        assert classify_trailer(trailer) == "srtcp-no-tag"

    def test_implausible_index_is_proprietary(self):
        trailer = (0x7FFFFFFF).to_bytes(4, "big")
        assert classify_trailer(trailer) == "proprietary"

    def test_discord_3_bytes(self):
        assert classify_trailer(b"\x00\x07\x80") == "proprietary"


class TestRtcpRules:
    def test_valid_sr_compliant(self):
        packet = SenderReport(ssrc=1, ntp_timestamp=2, rtp_timestamp=3,
                              packet_count=4, octet_count=5).to_packet()
        assert check_rtcp(wrap(packet, Protocol.RTCP)) == []

    def test_undefined_packet_type(self):
        packet = RtcpPacket(header=RtcpHeader(2, False, 0, 210, 1), body=bytes(4))
        violations = check_rtcp(wrap(packet, Protocol.RTCP))
        assert violations[0].criterion is Criterion.MESSAGE_TYPE

    def test_count_length_mismatch(self):
        packet = RtcpPacket(header=RtcpHeader(2, False, 3, 201, 1), body=bytes(4))
        violations = check_rtcp(wrap(packet, Protocol.RTCP))
        assert violations[0].code == "count-length-mismatch"
        assert violations[0].criterion is Criterion.HEADER_FIELDS

    def test_undefined_sdes_item(self):
        packet = SdesPacket(chunks=[SdesChunk(1, [SdesItem(9, b"zz")])]).to_packet()
        violations = check_rtcp(wrap(packet, Protocol.RTCP))
        assert violations[0].code == "undefined-sdes-item"
        assert violations[0].criterion is Criterion.ATTRIBUTE_TYPES

    def test_undefined_feedback_format(self):
        packet = FeedbackPacket(packet_type=205, fmt=9, sender_ssrc=1,
                                media_ssrc=2).to_packet()
        violations = check_rtcp(wrap(packet, Protocol.RTCP))
        assert violations[0].code == "undefined-feedback-format"

    def test_known_feedback_formats_pass(self):
        for packet_type, fmt in ((205, 1), (205, 15), (206, 1), (206, 15)):
            packet = FeedbackPacket(packet_type=packet_type, fmt=fmt,
                                    sender_ssrc=1, media_ssrc=2).to_packet()
            assert check_rtcp(wrap(packet, Protocol.RTCP)) == []

    def test_bad_app_name(self):
        packet = AppPacket(ssrc=1, name=b"\x00\x01\x02\x03").to_packet()
        violations = check_rtcp(wrap(packet, Protocol.RTCP))
        assert violations[0].code == "bad-app-name"

    def test_undefined_xr_block(self):
        packet = XrPacket(ssrc=1, blocks=[XrBlock(99, 0, bytes(4))]).to_packet()
        violations = check_rtcp(wrap(packet, Protocol.RTCP))
        assert violations[0].code == "undefined-xr-block"

    def test_srtcp_with_tag_compliant(self):
        packet = ReceiverReport(ssrc=1).to_packet()
        trailer = ((1 << 31) | 9).to_bytes(4, "big") + bytes(10)
        extracted = wrap(packet, Protocol.RTCP, trailer=trailer)
        assert check_rtcp(extracted) == []

    def test_srtcp_missing_tag_flagged(self):
        packet = ReceiverReport(ssrc=1).to_packet()
        trailer = ((1 << 31) | 9).to_bytes(4, "big")
        violations = check_rtcp(wrap(packet, Protocol.RTCP, trailer=trailer))
        assert violations[0].code == "srtcp-missing-auth-tag"
        assert violations[0].criterion is Criterion.SEMANTICS

    def test_proprietary_trailer_flagged(self):
        packet = ReceiverReport(ssrc=1).to_packet()
        violations = check_rtcp(wrap(packet, Protocol.RTCP, trailer=b"\x00\x01\x80"))
        assert violations[0].code == "undefined-trailing-bytes"

    def test_encrypted_body_skips_content_checks(self):
        # SRTCP-protected SDES body is random; must not be judged.
        header = RtcpHeader(2, False, 1, 202, 3)
        packet = RtcpPacket(header=header, body=b"\xff" * 12)
        trailer = ((1 << 31) | 2).to_bytes(4, "big") + bytes(10)
        assert check_rtcp(wrap(packet, Protocol.RTCP, trailer=trailer)) == []


class TestQuicRules:
    def _initial(self):
        from repro.protocols.quic.varint import encode_varint
        out = bytes([0xC1]) + struct.pack("!I", 1)
        out += bytes([8]) + b"\x01" * 8 + bytes([8]) + b"\x02" * 8
        out += encode_varint(0) + encode_varint(30) + bytes(30)
        return parse_one(out)

    def test_initial_compliant(self):
        assert check_quic(wrap(self._initial(), Protocol.QUIC)) == []

    def test_short_header_compliant(self):
        header = parse_one(bytes([0x41]) + b"\x01" * 8 + bytes(30), short_dcid_len=8)
        assert check_quic(wrap(header, Protocol.QUIC)) == []

    def test_version_negotiation_compliant(self):
        raw = bytes([0x80]) + struct.pack("!I", 0)
        raw += bytes([8]) + b"\x01" * 8 + bytes([8]) + b"\x02" * 8
        raw += struct.pack("!I", 1)
        assert check_quic(wrap(parse_one(raw), Protocol.QUIC)) == []
