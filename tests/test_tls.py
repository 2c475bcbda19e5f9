"""Tests for TLS ClientHello parsing and SNI extraction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocols.tls.client_hello import (
    TlsParseError,
    build_client_hello,
    extract_sni,
    parse_client_hello,
)


class TestClientHello:
    def test_round_trip_sni(self):
        raw = build_client_hello("media.example.net")
        assert extract_sni(raw) == "media.example.net"

    def test_parse_fields(self):
        raw = build_client_hello("a.b", random_bytes=bytes(range(32)))
        hello = parse_client_hello(raw)
        assert hello.legacy_version == 0x0303
        assert hello.random == bytes(range(32))
        assert 0x1301 in hello.cipher_suites

    def test_custom_suites(self):
        raw = build_client_hello("x.y", cipher_suites=[0xC02F])
        assert parse_client_hello(raw).cipher_suites == [0xC02F]

    def test_bad_random_length_rejected(self):
        with pytest.raises(ValueError):
            build_client_hello("x.y", random_bytes=b"short")

    def test_non_handshake_rejected(self):
        raw = bytearray(build_client_hello("x.y"))
        raw[0] = 23  # application data
        with pytest.raises(TlsParseError):
            parse_client_hello(bytes(raw))

    def test_non_clienthello_rejected(self):
        raw = bytearray(build_client_hello("x.y"))
        raw[5] = 2  # ServerHello
        with pytest.raises(TlsParseError):
            parse_client_hello(bytes(raw))

    def test_extract_sni_on_garbage_returns_none(self):
        assert extract_sni(b"not tls at all") is None
        assert extract_sni(b"") is None

    def test_extract_sni_with_corrupted_extension_is_graceful(self):
        raw = bytearray(build_client_hello("x.y"))
        raw[-4:] = b"\x00\x00\x00\x00"
        # Must not raise; the mangled SNI yields a degenerate or no name.
        assert extract_sni(bytes(raw)) != "x.y"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz.-", min_size=1, max_size=40))
    def test_property_sni_round_trip(self, hostname):
        assert extract_sni(build_client_hello(hostname)) == hostname


def _parsed_sni(data):
    """SNI by a full parse of every payload: what ``extract_sni`` returned
    before it probed bytes 0 and 5 first."""
    try:
        return parse_client_hello(data).sni
    except TlsParseError:
        return None


_hello = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz.-", min_size=1, max_size=40
).map(build_client_hello)


class TestClientHelloProbe:
    """``extract_sni`` skips the parse for payloads that cannot open a
    ClientHello record; the skip must never change its answer."""

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        assert extract_sni(data) == _parsed_sni(data)

    @given(_hello, st.integers(min_value=0, max_value=8))
    def test_truncated_hello(self, hello, length):
        data = hello[:length]
        assert extract_sni(data) is None
        assert _parsed_sni(data) is None

    @given(_hello, st.sampled_from([0, 5]), st.integers(0, 255))
    def test_mutated_probe_byte(self, hello, position, value):
        data = bytearray(hello)
        data[position] = value
        data = bytes(data)
        assert extract_sni(data) == _parsed_sni(data)
        if value == hello[position]:
            assert extract_sni(data) is not None

    @given(_hello, st.data())
    def test_any_truncation(self, hello, data):
        cut = hello[:data.draw(st.integers(0, len(hello)))]
        assert extract_sni(cut) == _parsed_sni(cut)
