"""Stage-one candidate extraction: per-protocol structural matchers.

Each matcher answers "could a message of this protocol start at offset i of
this payload?" using only invariants every specification version shares —
exactly the loosened Peafowl patterns the paper describes (e.g. no payload
type restriction for RTP).  Anything that matches becomes a candidate;
stage two kills the false positives.

A naive implementation re-checks every offset; these matchers instead
enumerate only offsets whose leading bytes could possibly match — using
precompiled byte-class regexes, which scan at C speed — and parse at
absolute offsets into the shared payload buffer instead of slicing a fresh
``payload[offset:]`` window per candidate.  This is behaviourally identical
to Algorithm 1's 0..k sweep but linear in payload size and zero-copy.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Any, List

from repro.dpi.messages import Protocol
from repro.protocols.quic.header import (
    QUIC_V1,
    QUIC_V2,
    QuicParseError,
    parse_one,
)
from repro.protocols.rtcp.packets import RtcpHeader, RtcpPacket, RtcpParseError
from repro.protocols.rtp.header import looks_like_rtp
from repro.protocols.stun.constants import MAGIC_COOKIE
from repro.protocols.stun.message import (
    ChannelData,
    StunMessage,
    StunParseError,
    looks_like_stun,
)

_COOKIE_BYTES = MAGIC_COOKIE.to_bytes(4, "big")
#: RTCP packet types occupy 192-223 when demultiplexed per RFC 5761 §4.
_RTCP_PT_RANGE = range(192, 224)
#: Maximum unclaimed bytes after an RTCP compound that we treat as a trailer
#: belonging to the last packet (SRTCP index+tag is 14, Discord's is 3).
MAX_RTCP_TRAILER = 16

#: First byte with version 2 — the anchor every RTP/RTCP candidate shares.
_RTP_ANCHOR = re.compile(rb"[\x80-\xbf]")
#: Version-2 first byte followed by a packet type in the RTCP range.  The
#: two byte classes are disjoint, so matches can never overlap and a plain
#: ``finditer`` enumerates exactly the offsets the per-byte sweep would.
_RTCP_ANCHOR = re.compile(rb"[\x80-\xbf][\xc0-\xdf]")
#: Long-header first byte (form+fixed bits) followed by a recognized version
#: (v1, v2, or the all-zero version-negotiation marker).  Zero-width
#: lookahead because anchors *can* overlap (a version byte may itself start
#: another plausible header).
_QUIC_ANCHOR = re.compile(
    rb"(?=[\xc0-\xff](?:"
    + re.escape(QUIC_V1.to_bytes(4, "big"))
    + rb"|"
    + re.escape(QUIC_V2.to_bytes(4, "big"))
    + rb"|\x00\x00\x00\x00))"
)
#: RTP sequence number, timestamp, SSRC — bytes 2..12 of the fixed header.
_RTP_FIELDS = struct.Struct("!HII")


@dataclass(slots=True)
class Candidate:
    """A structurally plausible message found at some payload offset.

    RTP candidates defer full parsing (``message`` is None) because the scan
    may surface many of them per datagram; the cheap header fields needed
    for validation live in ``rtp_ssrc``/``rtp_seq``/``rtp_timestamp``.
    ``slots=True`` because sweeps materialize these by the hundred
    thousand; slot storage trims both construction time and footprint.
    """

    protocol: Protocol
    offset: int
    length: int
    message: Any = None
    trailer: bytes = b""
    # Set for modern STUN (magic cookie present); classic candidates need
    # stricter validation.
    classic_stun: bool = False
    # Header fields pre-extracted for RTP validation.
    rtp_ssrc: int = 0
    rtp_seq: int = 0
    rtp_timestamp: int = 0
    # Offset of the structure this candidate was found inside (equals
    # ``offset`` except for members of an RTCP compound, which inherit the
    # compound's starting offset for validation purposes).
    anchor: int = -1

    def __post_init__(self) -> None:
        if self.anchor < 0:
            self.anchor = self.offset

    @property
    def end(self) -> int:
        return self.offset + self.length + len(self.trailer)


def stun_candidates(payload: bytes, max_offset: int) -> List[Candidate]:
    """Modern STUN anywhere (cookie-anchored), classic STUN at offset 0,
    ChannelData at offset 0."""
    candidates: List[Candidate] = []

    # Modern STUN: anchor on the magic cookie at bytes 4..8 of the header.
    for offset in _cookie_offsets(payload, max_offset):
        if not looks_like_stun(payload, offset):
            continue
        try:
            message = StunMessage.parse(payload, strict=False, start=offset)
        except StunParseError:
            continue
        if message.classic:
            continue  # cookie bytes were coincidental
        candidates.append(
            Candidate(
                protocol=Protocol.STUN_TURN,
                offset=offset,
                length=message.wire_length,
                message=message,
            )
        )

    # Classic (RFC 3489) STUN: no cookie to anchor on, so only claim it at
    # offset 0 with an exact length fit — Zoom's usage.
    if looks_like_stun(payload):
        try:
            message = StunMessage.parse(payload, strict=True)
        except StunParseError:
            message = None
        if message is not None and message.classic:
            candidates.append(
                Candidate(
                    protocol=Protocol.STUN_TURN,
                    offset=0,
                    length=message.wire_length,
                    message=message,
                    classic_stun=True,
                )
            )

    # ChannelData: over UDP the frame is the whole datagram (offset 0);
    # the channel must be in the RFC 8656 client range 0x4000-0x4FFF and at
    # most 3 slack bytes may follow (kept as a trailer so the compliance
    # layer can flag the padding, which is illegal over UDP).
    if len(payload) >= 4 and 0x40 <= payload[0] <= 0x4F:
        try:
            frame = ChannelData.parse(payload, strict=False)
        except StunParseError:
            frame = None
        if frame is not None and frame.channel <= 0x4FFF:
            leftover = len(payload) - frame.wire_length
            if 0 <= leftover <= 3:
                candidates.append(
                    Candidate(
                        protocol=Protocol.STUN_TURN,
                        offset=0,
                        length=frame.wire_length,
                        message=frame,
                        trailer=payload[frame.wire_length:],
                    )
                )
    return candidates


def _cookie_offsets(payload: bytes, max_offset: int) -> List[int]:
    """Offsets whose bytes 4..8 carry the magic cookie, in scan order."""
    out: List[int] = []
    search_start = 0
    while True:
        pos = payload.find(_COOKIE_BYTES, search_start)
        if pos < 0:
            break
        search_start = pos + 1
        offset = pos - 4
        if 0 <= offset <= max_offset:
            out.append(offset)
    return out


def rtp_candidates(payload: bytes, max_offset: int) -> List[Candidate]:
    """RTP at any offset whose first byte has version 2.

    An RTP message has no length field, so each candidate tentatively spans
    to the end of the datagram; overlap resolution may later truncate it
    when a continuation packet follows (Zoom's dual-RTP datagrams).
    """
    candidates: List[Candidate] = []
    size = len(payload)
    if size < 12:
        return candidates
    limit = min(max_offset, size - 12)
    for match in _RTP_ANCHOR.finditer(payload, 0, limit + 1):
        offset = match.start()
        if not looks_like_rtp(payload, offset):
            continue
        seq, timestamp, ssrc = _RTP_FIELDS.unpack_from(payload, offset + 2)
        candidates.append(
            Candidate(
                protocol=Protocol.RTP,
                offset=offset,
                length=size - offset,
                rtp_ssrc=ssrc,
                rtp_seq=seq,
                rtp_timestamp=timestamp,
            )
        )
    return candidates


def rtcp_candidates(payload: bytes, max_offset: int) -> List[Candidate]:
    """RTCP compounds at any offset; trailing bytes become the last
    packet's trailer when short enough."""
    candidates: List[Candidate] = []
    size = len(payload)
    if size < 4:
        return candidates
    limit = min(max_offset, size - 4)
    for match in _RTCP_ANCHOR.finditer(payload, 0, limit + 2):
        offset = match.start()
        packets: List[RtcpPacket] = []
        pos = offset
        while pos + 4 <= size:
            try:
                header = RtcpHeader.parse(payload, pos)
            except RtcpParseError:
                break
            if (
                header.version != 2
                or payload[pos + 1] not in _RTCP_PT_RANGE
                or pos + header.wire_length > size
            ):
                break
            packets.append(
                RtcpPacket(
                    header=header,
                    body=payload[pos + 4:pos + header.wire_length],
                )
            )
            pos += header.wire_length
        if not packets:
            continue
        if size - pos > MAX_RTCP_TRAILER:
            # Too much unclaimed data to be a trailer; reject the tail
            # packet boundary — likely a false positive unless another
            # protocol claims those bytes.
            continue
        leftover = payload[pos:] if pos < size else b""
        running = offset
        for i, packet in enumerate(packets):
            trailer = leftover if i == len(packets) - 1 else b""
            candidates.append(
                Candidate(
                    protocol=Protocol.RTCP,
                    offset=running,
                    length=packet.header.wire_length,
                    message=packet,
                    trailer=trailer,
                    anchor=offset,
                )
            )
            running += packet.header.wire_length
    return candidates


def quic_candidates(payload: bytes, max_offset: int) -> List[Candidate]:
    """QUIC long headers at any offset (coalesced packets expand in place).

    Short-header packets are only surfaced at offset 0 and must be confirmed
    by the validator against connection IDs learned from long headers.
    """
    candidates: List[Candidate] = []
    size = len(payload)
    if size >= 7:
        limit = min(max_offset, size - 7)
        # The lookahead needs 5 visible bytes, so the match at `limit` is
        # still found with endpos limit+5 while anything past it is not.
        next_allowed = 0
        for match in _QUIC_ANCHOR.finditer(payload, 0, min(size, limit + 5)):
            offset = match.start()
            if offset < next_allowed:
                # Interior of a previously parsed packet: the byte sweep
                # jumps over parsed packets, so the anchor scan must too.
                continue
            try:
                header = parse_one(payload, start=offset)
            except QuicParseError:
                continue
            candidates.append(
                Candidate(
                    protocol=Protocol.QUIC,
                    offset=offset,
                    length=header.wire_length,
                    message=header,
                )
            )
            next_allowed = offset + max(header.wire_length, 1)
    # Tentative short header at offset 0 (validator checks the DCID).
    if payload and payload[0] & 0xC0 == 0x40 and size >= 1 + 8 + 17:
        try:
            header = parse_one(payload, short_dcid_len=8)
        except QuicParseError:
            header = None
        if header is not None and not header.is_long:
            candidates.append(
                Candidate(
                    protocol=Protocol.QUIC,
                    offset=0,
                    length=header.wire_length,
                    message=header,
                )
            )
    return candidates


MATCHERS = {
    Protocol.STUN_TURN: stun_candidates,
    Protocol.RTP: rtp_candidates,
    Protocol.RTCP: rtcp_candidates,
    Protocol.QUIC: quic_candidates,
}


def sweep_order(candidate: Candidate):
    """The sweep's candidate order: by offset, longer first on a tie."""
    return (candidate.offset, -candidate.length)


def sweep(payload: bytes, max_offset: int) -> List[Candidate]:
    """The reference sweep (Algorithm 1, stage one) over one payload.

    Every matcher of :data:`MATCHERS`, in that order, at offsets 0..k,
    merged and stable-sorted by :func:`sweep_order`.  A payload that is
    not ``bytes`` (a ``bytearray``, a ``memoryview``) is scanned as
    ``bytes(payload)``, as the columnar scanner does.
    """
    if type(payload) is not bytes:
        payload = bytes(payload)
    candidates: List[Candidate] = []
    for matcher in MATCHERS.values():
        candidates.extend(matcher(payload, max_offset))
    candidates.sort(key=sweep_order)
    return candidates
