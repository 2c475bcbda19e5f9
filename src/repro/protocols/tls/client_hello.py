"""TLS ClientHello codec (RFC 8446 §4.1.2) with SNI extraction (RFC 6066)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.utils.bytesview import ByteReader, ByteWriter, TruncatedError

RECORD_TYPE_HANDSHAKE = 22
HANDSHAKE_TYPE_CLIENT_HELLO = 1
EXTENSION_SNI = 0
SNI_TYPE_HOSTNAME = 0


class TlsParseError(ValueError):
    """Raised when bytes cannot be parsed as the expected TLS structure."""


@dataclass(frozen=True)
class ClientHello:
    """The fields of a ClientHello this library cares about."""

    legacy_version: int
    random: bytes
    session_id: bytes
    cipher_suites: List[int] = field(default_factory=list)
    extensions: List[Tuple[int, bytes]] = field(default_factory=list)

    @property
    def sni(self) -> Optional[str]:
        for ext_type, ext_data in self.extensions:
            if ext_type != EXTENSION_SNI:
                continue
            try:
                reader = ByteReader(ext_data)
                reader.u16()  # server name list length
                name_type = reader.u8()
                name_len = reader.u16()
                if name_type == SNI_TYPE_HOSTNAME:
                    return reader.read(name_len).decode("ascii", errors="replace")
            except TruncatedError:
                return None
        return None


def parse_client_hello(data: bytes) -> ClientHello:
    """Parse a TLS record containing a ClientHello handshake message."""
    reader = ByteReader(data)
    try:
        record_type = reader.u8()
        if record_type != RECORD_TYPE_HANDSHAKE:
            raise TlsParseError(f"record type {record_type} is not handshake")
        reader.u16()  # record legacy version
        record_len = reader.u16()
        record = reader.subreader(min(record_len, reader.remaining))
        hs_type = record.u8()
        if hs_type != HANDSHAKE_TYPE_CLIENT_HELLO:
            raise TlsParseError(f"handshake type {hs_type} is not ClientHello")
        hs_len = record.u24()
        body = record.subreader(min(hs_len, record.remaining))
        legacy_version = body.u16()
        rand = body.read(32)
        session_id = body.read(body.u8())
        suites_len = body.u16()
        suites_reader = body.subreader(suites_len)
        cipher_suites = [suites_reader.u16() for _ in range(suites_len // 2)]
        body.skip(body.u8())  # compression methods
        extensions: List[Tuple[int, bytes]] = []
        if body.remaining >= 2:
            ext_total = body.u16()
            ext_reader = body.subreader(min(ext_total, body.remaining))
            while ext_reader.remaining >= 4:
                ext_type = ext_reader.u16()
                ext_len = ext_reader.u16()
                extensions.append((ext_type, ext_reader.read(ext_len)))
    except TruncatedError as exc:
        raise TlsParseError(str(exc)) from exc
    return ClientHello(
        legacy_version=legacy_version,
        random=rand,
        session_id=session_id,
        cipher_suites=cipher_suites,
        extensions=extensions,
    )


def extract_sni(data: bytes) -> Optional[str]:
    """Best-effort SNI extraction; returns None for anything non-ClientHello.

    A payload that cannot open a ClientHello record — fewer than 6 bytes,
    a first byte other than 22 (handshake) or a sixth byte other than 1
    (ClientHello) — returns None without a parse.  Each of these makes
    :func:`parse_client_hello` raise within its first six bytes, so the
    answer is the same, and the records of a stream that carries no
    ClientHello cost a length check and a byte compare each.
    """
    if (
        len(data) < 6
        or data[0] != RECORD_TYPE_HANDSHAKE
        or data[5] != HANDSHAKE_TYPE_CLIENT_HELLO
    ):
        return None
    try:
        return parse_client_hello(data).sni
    except TlsParseError:
        return None


def build_client_hello(
    sni: str,
    random_bytes: bytes = b"\x00" * 32,
    cipher_suites: Optional[List[int]] = None,
) -> bytes:
    """Build a minimal but well-formed ClientHello record carrying *sni*."""
    if cipher_suites is None:
        cipher_suites = [0x1301, 0x1302, 0x1303]  # TLS 1.3 suites
    if len(random_bytes) != 32:
        raise ValueError("ClientHello random must be 32 bytes")

    hostname = sni.encode("ascii")
    sni_entry = ByteWriter()
    sni_entry.u16(len(hostname) + 3)  # server name list length
    sni_entry.u8(SNI_TYPE_HOSTNAME)
    sni_entry.u16(len(hostname))
    sni_entry.write(hostname)
    sni_ext = sni_entry.getvalue()

    extensions = ByteWriter()
    extensions.u16(EXTENSION_SNI)
    extensions.u16(len(sni_ext))
    extensions.write(sni_ext)
    ext_bytes = extensions.getvalue()

    body = ByteWriter()
    body.u16(0x0303)  # legacy version TLS 1.2
    body.write(random_bytes)
    body.u8(0)  # empty session id
    body.u16(len(cipher_suites) * 2)
    for suite in cipher_suites:
        body.u16(suite)
    body.u8(1)
    body.u8(0)  # null compression
    body.u16(len(ext_bytes))
    body.write(ext_bytes)
    hs_body = body.getvalue()

    handshake = ByteWriter()
    handshake.u8(HANDSHAKE_TYPE_CLIENT_HELLO)
    handshake.u24(len(hs_body))
    handshake.write(hs_body)
    hs_bytes = handshake.getvalue()

    record = ByteWriter()
    record.u8(RECORD_TYPE_HANDSHAKE)
    record.u16(0x0301)
    record.u16(len(hs_bytes))
    record.write(hs_bytes)
    return record.getvalue()
