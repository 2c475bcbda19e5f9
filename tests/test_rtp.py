"""Tests for the RTP codec and RFC 8285 header extensions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocols.rtp.extensions import (
    ONE_BYTE_PROFILE,
    ExtensionElement,
    HeaderExtension,
    build_one_byte_extension,
    build_two_byte_extension,
    parse_one_byte_elements,
    parse_two_byte_elements,
)
from repro.protocols.rtp.header import RtpPacket, RtpParseError, looks_like_rtp
from repro.protocols.rtp.payload_types import (
    is_dynamic_payload_type,
    payload_type_name,
)
from repro.utils.bytesview import ByteReader, TruncatedError


def make_packet(**overrides):
    defaults = dict(
        payload_type=96,
        sequence_number=1234,
        timestamp=567890,
        ssrc=0xDEADBEEF,
        payload=b"media",
    )
    defaults.update(overrides)
    return RtpPacket(**defaults)


class TestRtpHeader:
    def test_round_trip_minimal(self):
        packet = make_packet()
        assert RtpPacket.parse(packet.build()) == packet

    def test_round_trip_marker(self):
        packet = make_packet(marker=True)
        assert RtpPacket.parse(packet.build()).marker

    def test_round_trip_csrcs(self):
        packet = make_packet(csrcs=[1, 2, 3])
        parsed = RtpPacket.parse(packet.build())
        assert parsed.csrcs == (1, 2, 3)

    def test_too_many_csrcs_rejected(self):
        with pytest.raises(ValueError):
            make_packet(csrcs=list(range(16))).build()

    def test_round_trip_padding(self):
        packet = make_packet(padding_length=4)
        raw = packet.build()
        assert raw[0] & 0x20
        parsed = RtpPacket.parse(raw)
        assert parsed.padding_length == 4
        assert parsed.payload == b"media"

    def test_invalid_padding_strict_raises(self):
        raw = bytearray(make_packet().build())
        raw[0] |= 0x20  # padding bit set, pad count byte is payload's last byte
        raw[-1] = 0  # zero pad count is illegal
        with pytest.raises(RtpParseError):
            RtpPacket.parse(bytes(raw))

    def test_invalid_padding_lenient_flagged(self):
        raw = bytearray(make_packet().build())
        raw[0] |= 0x20
        raw[-1] = 200  # exceeds payload
        parsed = RtpPacket.parse(bytes(raw), strict=False)
        assert parsed.invalid_padding

    def test_wrong_version_rejected(self):
        raw = bytearray(make_packet().build())
        raw[0] = (raw[0] & 0x3F) | (1 << 6)
        with pytest.raises(RtpParseError):
            RtpPacket.parse(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(RtpParseError):
            RtpPacket.parse(b"\x80\x60\x00\x01")

    def test_round_trip_extension(self):
        extension = HeaderExtension(profile=0xBEDE, data=b"\x10\x01\x00\x00")
        packet = make_packet(extension=extension)
        parsed = RtpPacket.parse(packet.build())
        assert parsed.extension == extension

    def test_wire_length_accounting(self):
        packet = make_packet(csrcs=[1], extension=HeaderExtension(0xBEDE, bytes(4)))
        assert packet.wire_length == len(packet.build())
        assert packet.header_length == 12 + 4 + 8

    @given(
        st.integers(0, 127), st.integers(0, 65535),
        st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
        st.binary(max_size=100),
    )
    def test_property_round_trip(self, pt, seq, ts, ssrc, payload):
        packet = RtpPacket(payload_type=pt, sequence_number=seq, timestamp=ts,
                           ssrc=ssrc, payload=payload)
        assert RtpPacket.parse(packet.build()) == packet


class TestOneByteExtensions:
    def test_build_and_parse(self):
        extension = build_one_byte_extension([(1, b"\x7f"), (3, b"\x01\x02")])
        assert extension.profile == ONE_BYTE_PROFILE
        elements = extension.elements()
        assert [(e.ext_id, e.data) for e in elements] == [(1, b"\x7f"), (3, b"\x01\x02")]

    def test_padding_bytes_skipped(self):
        extension = build_one_byte_extension([(1, b"\x00")])
        # data is 2 bytes + 2 padding; padding must not surface as elements.
        assert len(extension.elements()) == 1

    def test_id_zero_with_length_preserved(self):
        # Discord's anomaly: 0x03 = ID 0, length nibble 3.
        data = bytes([0x03]) + b"abcd" + bytes(3)
        elements = parse_one_byte_elements(data)
        assert elements[0].ext_id == 0
        assert elements[0].declared_length == 4

    def test_id15_terminates(self):
        data = bytes([0xF0, 0xAA, 0xBB, 0xCC])
        assert parse_one_byte_elements(data) == []

    def test_invalid_build_args(self):
        with pytest.raises(ValueError):
            build_one_byte_extension([(0, b"x")])
        with pytest.raises(ValueError):
            build_one_byte_extension([(15, b"x")])
        with pytest.raises(ValueError):
            build_one_byte_extension([(1, b"")])
        with pytest.raises(ValueError):
            build_one_byte_extension([(1, bytes(17))])


class TestTwoByteExtensions:
    def test_build_and_parse(self):
        extension = build_two_byte_extension([(5, b""), (200, b"abc")])
        assert extension.is_two_byte
        elements = extension.elements()
        assert [(e.ext_id, e.data) for e in elements] == [(5, b""), (200, b"abc")]

    def test_custom_appbits_profile(self):
        extension = build_two_byte_extension([(1, b"x")], profile=0x100A)
        assert extension.is_two_byte

    def test_non_8285_profile_has_no_elements(self):
        extension = HeaderExtension(profile=0x8001, data=bytes(8))
        assert extension.elements() == []
        assert not extension.is_one_byte
        assert not extension.is_two_byte

    def test_unaligned_data_rejected_on_build(self):
        with pytest.raises(ValueError):
            HeaderExtension(profile=0xBEDE, data=b"abc").build()


class TestPayloadTypes:
    def test_static_names(self):
        assert payload_type_name(0) == "PCMU"
        assert payload_type_name(8) == "PCMA"
        assert payload_type_name(34) == "H263"

    def test_dynamic_range(self):
        assert is_dynamic_payload_type(96)
        assert is_dynamic_payload_type(127)
        assert not is_dynamic_payload_type(95)
        assert payload_type_name(111) == "dynamic-111"

    def test_unassigned_returns_none(self):
        assert payload_type_name(35) is None


class TestLooksLikeRtp:
    def test_accepts_real_packet(self):
        assert looks_like_rtp(make_packet().build())

    def test_rejects_version_1(self):
        raw = bytearray(make_packet().build())
        raw[0] = 0x40
        assert not looks_like_rtp(bytes(raw))

    def test_rejects_rtcp_range(self):
        # PT 72 with marker bit = second byte 200 -> RTCP per RFC 5761.
        raw = bytearray(make_packet().build())
        raw[1] = 200
        assert not looks_like_rtp(bytes(raw))

    def test_rejects_truncated_extension(self):
        packet = make_packet(extension=HeaderExtension(0xBEDE, bytes(8)))
        raw = packet.build()[:16]
        assert not looks_like_rtp(raw)

    def test_rejects_overrun_csrcs(self):
        raw = bytearray(make_packet(payload=b"").build())
        raw[0] |= 0x0F  # claim 15 CSRCs that are not there
        assert not looks_like_rtp(bytes(raw))

    @given(st.binary(max_size=80))
    def test_never_crashes(self, data):
        looks_like_rtp(data)


def _reference_parse(data, strict=True, start=0, end=None):
    """The ``ByteReader`` RTP parser ``RtpPacket.parse`` replaced, kept
    verbatim as the oracle for its ``struct`` rewrite."""
    try:
        reader = ByteReader(data, start, end)
    except ValueError as exc:
        raise RtpParseError(str(exc)) from exc
    try:
        first = reader.u8()
        second = reader.u8()
        sequence_number = reader.u16()
        timestamp = reader.u32()
        ssrc = reader.u32()
    except TruncatedError as exc:
        raise RtpParseError(str(exc)) from exc
    version = first >> 6
    if version != 2:
        raise RtpParseError(f"RTP version {version} != 2")
    padding = bool(first & 0x20)
    has_extension = bool(first & 0x10)
    csrc_count = first & 0x0F
    marker = bool(second & 0x80)
    payload_type = second & 0x7F

    csrcs = []
    try:
        for _ in range(csrc_count):
            csrcs.append(reader.u32())
        extension = None
        if has_extension:
            profile = reader.u16()
            word_length = reader.u16()
            extension = HeaderExtension(
                profile=profile, data=reader.read(word_length * 4)
            )
    except TruncatedError as exc:
        raise RtpParseError(str(exc)) from exc

    payload = reader.rest()
    padding_length = 0
    invalid_padding = False
    if padding:
        if not payload:
            raise RtpParseError("padding bit set but no payload bytes")
        padding_length = payload[-1]
        if padding_length == 0 or padding_length > len(payload):
            if strict:
                raise RtpParseError(
                    f"invalid padding length {padding_length} for "
                    f"{len(payload)} payload bytes"
                )
            padding_length = 0
            invalid_padding = True
        else:
            payload = payload[:-padding_length]

    return RtpPacket(
        payload_type=payload_type,
        sequence_number=sequence_number,
        timestamp=timestamp,
        ssrc=ssrc,
        payload=payload,
        marker=marker,
        csrcs=csrcs,
        extension=extension,
        padding_length=padding_length,
        invalid_padding=invalid_padding,
    )


def _outcome(parse, *args, **kwargs):
    try:
        return parse(*args, **kwargs)
    except RtpParseError:
        return RtpParseError


#: Random bytes that often start with a version-2 byte and often set the
#: padding, extension and CSRC bits, so every branch gets reached.
_rtp_like = st.tuples(
    st.sampled_from([0x80, 0x81, 0x8F, 0x90, 0x92, 0xA0, 0xB3, 0xBF, 0x40]),
    st.binary(max_size=80),
).map(lambda t: bytes([t[0]]) + t[1])


class TestParseMatchesByteReaderOracle:
    @given(
        data=st.one_of(_rtp_like, st.binary(max_size=40)),
        start=st.integers(min_value=-2, max_value=24),
        end=st.one_of(st.none(), st.integers(min_value=-1, max_value=90)),
        strict=st.booleans(),
    )
    def test_random_windows(self, data, start, end, strict):
        assert _outcome(
            RtpPacket.parse, data, strict=strict, start=start, end=end
        ) == _outcome(_reference_parse, data, strict=strict, start=start, end=end)

    @pytest.mark.parametrize("padding_length", [0, 3])
    def test_every_prefix_of_a_full_packet(self, padding_length):
        # Without padding, a cut right after the extension still parses
        # (empty payload); with it, that cut has no pad count byte.
        packet = make_packet(
            csrcs=[1, 2, 0xFFFFFFFF],
            extension=HeaderExtension(
                profile=ONE_BYTE_PROFILE, data=b"\x10\xaa\x00\x00"
            ),
            payload=b"\x01\x02\x03\x04\x05",
            padding_length=padding_length,
        )
        wire = b"\x99" * 5 + packet.build() + b"\x77" * 3
        start = 5
        stop = start + len(packet.build())
        assert RtpPacket.parse(wire, start=start, end=stop) == packet
        outcomes = set()
        for end in range(start, len(wire) + 1):
            for strict in (True, False):
                got = _outcome(
                    RtpPacket.parse, wire, strict=strict, start=start, end=end
                )
                assert got == _outcome(
                    _reference_parse, wire, strict=strict, start=start, end=end
                ), (end, strict)
                outcomes.add(got is RtpParseError)
            assert _outcome(RtpPacket.parse, wire[start:end]) == _outcome(
                _reference_parse, wire[start:end]
            )
        assert outcomes == {True, False}
