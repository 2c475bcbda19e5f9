"""RTP fixed header codec (RFC 3550 §5.1)."""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Tuple

from repro.protocols.rtp.extensions import HeaderExtension
from repro.utils.bytesview import ByteWriter

RTP_VERSION = 2
FIXED_HEADER_LEN = 12

#: First byte, second byte, sequence number, timestamp, SSRC.
_FIXED = struct.Struct("!BBHII")
#: The CSRC list for each possible CC value.
_CSRC_LISTS = [struct.Struct(f"!{count}I") for count in range(16)]
#: Extension profile and length in 32-bit words.
_EXTENSION_HEADER = struct.Struct("!HH")


class RtpParseError(ValueError):
    """Raised when bytes cannot be parsed as an RTP packet."""


def _truncated(need: int, pos: int, end: int) -> RtpParseError:
    return RtpParseError(
        f"need {need} bytes at offset {pos}, only {end - pos} left"
    )


@dataclass(frozen=True, slots=True, init=False, repr=False)
class RtpPacket:
    """A parsed RTP packet.

    ``payload`` holds the media bytes after any CSRC list and header
    extension; for SRTP traffic it is ciphertext, which is fine — the study
    judges header structure, not media content.  A packet parsed from
    ``bytes`` keeps it as a read-only ``memoryview`` into those bytes, so
    the media is never copied (``bytes(packet.payload)`` copies it); the
    view compares equal to the same bytes, pickles and copies as
    ``bytes``, and shows as ``bytes`` in the ``repr``.

    ``__init__`` writes each slot through its member descriptor; the
    dataclass-generated frozen one goes through ``object.__setattr__`` at
    about twice the cost per packet.  :meth:`parse` calls it positionally.
    Equality, ``dataclasses.replace`` and the frozen
    ``FrozenInstanceError`` are the dataclass's own, and ``repr`` is its
    format.
    """

    payload_type: int
    sequence_number: int
    timestamp: int
    ssrc: int
    payload: bytes = b""
    marker: bool = False
    csrcs: Tuple[int, ...] = ()
    extension: Optional[HeaderExtension] = None
    padding_length: int = 0
    # Set by non-strict parsing when the padding bit was set but the pad
    # count byte was impossible — surfaced to the compliance layer.
    invalid_padding: bool = False

    def __init__(
        self,
        payload_type: int,
        sequence_number: int,
        timestamp: int,
        ssrc: int,
        payload: bytes = b"",
        marker: bool = False,
        csrcs: Iterable[int] = (),
        extension: Optional[HeaderExtension] = None,
        padding_length: int = 0,
        invalid_padding: bool = False,
    ) -> None:
        _set_payload_type(self, payload_type)
        _set_sequence_number(self, sequence_number)
        _set_timestamp(self, timestamp)
        _set_ssrc(self, ssrc)
        _set_payload(self, payload)
        _set_marker(self, marker)
        _set_csrcs(self, tuple(csrcs))
        _set_extension(self, extension)
        _set_padding_length(self, padding_length)
        _set_invalid_padding(self, invalid_padding)

    @classmethod
    def parse(
        cls,
        data: bytes,
        strict: bool = True,
        start: int = 0,
        end: Optional[int] = None,
    ) -> "RtpPacket":
        """Parse the packet spanning ``data[start:end]`` without slicing it."""
        if end is None:
            end = len(data)
        if not 0 <= start <= end <= len(data):
            raise RtpParseError(
                f"invalid window [{start}:{end}] for {len(data)} bytes"
            )
        pos = start + FIXED_HEADER_LEN
        if pos > end:
            raise _truncated(FIXED_HEADER_LEN, start, end)
        first, second, sequence_number, timestamp, ssrc = _FIXED.unpack_from(
            data, start
        )
        version = first >> 6
        if version != RTP_VERSION:
            raise RtpParseError(f"RTP version {version} != 2")
        padding = bool(first & 0x20)
        csrc_count = first & 0x0F
        marker = bool(second & 0x80)
        payload_type = second & 0x7F

        if csrc_count:
            if pos + 4 * csrc_count > end:
                raise _truncated(4 * csrc_count, pos, end)
            csrcs = _CSRC_LISTS[csrc_count].unpack_from(data, pos)
            pos += 4 * csrc_count
        else:
            csrcs = ()
        extension = None
        if first & 0x10:
            if pos + 4 > end:
                raise _truncated(4, pos, end)
            profile, word_length = _EXTENSION_HEADER.unpack_from(data, pos)
            pos += 4
            stop = pos + 4 * word_length
            if stop > end:
                raise _truncated(4 * word_length, pos, end)
            extension = HeaderExtension(profile=profile, data=bytes(data[pos:stop]))
            pos = stop

        # Immutable input can be shared; any other buffer is copied so the
        # frozen packet never changes under its caller.
        if type(data) is bytes:
            payload = memoryview(data)[pos:end]
        else:
            payload = bytes(data[pos:end])
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

        return cls(
            payload_type, sequence_number, timestamp, ssrc, payload, marker,
            csrcs, extension, padding_length, invalid_padding,
        )

    def __repr__(self) -> str:
        # A memoryview's own repr is its address, which hides the bytes
        # and differs from run to run.
        shown = ", ".join(
            f"{f.name}={bytes(self.payload)!r}" if f.name == "payload"
            else f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
        )
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # A memoryview neither pickles nor deep-copies: it travels as bytes.
        return (
            type(self),
            (
                self.payload_type,
                self.sequence_number,
                self.timestamp,
                self.ssrc,
                bytes(self.payload),
                self.marker,
                self.csrcs,
                self.extension,
                self.padding_length,
                self.invalid_padding,
            ),
        )

    def build(self) -> bytes:
        if len(self.csrcs) > 15:
            raise ValueError("at most 15 CSRCs fit in the 4-bit CC field")
        writer = ByteWriter()
        first = (RTP_VERSION << 6) | len(self.csrcs)
        if self.padding_length:
            first |= 0x20
        if self.extension is not None:
            first |= 0x10
        writer.u8(first)
        writer.u8((0x80 if self.marker else 0) | (self.payload_type & 0x7F))
        writer.u16(self.sequence_number)
        writer.u32(self.timestamp)
        writer.u32(self.ssrc)
        for csrc in self.csrcs:
            writer.u32(csrc)
        if self.extension is not None:
            writer.write(self.extension.build())
        writer.write(self.payload)
        if self.padding_length:
            if self.padding_length < 1:
                raise ValueError("padding length must be >= 1")
            writer.write(bytes(self.padding_length - 1) + bytes([self.padding_length]))
        return writer.getvalue()

    @property
    def header_length(self) -> int:
        length = FIXED_HEADER_LEN + 4 * len(self.csrcs)
        if self.extension is not None:
            length += 4 + len(self.extension.data)
        return length

    @property
    def wire_length(self) -> int:
        return self.header_length + len(self.payload) + self.padding_length


#: The slot setters ``RtpPacket.__init__`` writes through.
_set_payload_type = RtpPacket.payload_type.__set__
_set_sequence_number = RtpPacket.sequence_number.__set__
_set_timestamp = RtpPacket.timestamp.__set__
_set_ssrc = RtpPacket.ssrc.__set__
_set_payload = RtpPacket.payload.__set__
_set_marker = RtpPacket.marker.__set__
_set_csrcs = RtpPacket.csrcs.__set__
_set_extension = RtpPacket.extension.__set__
_set_padding_length = RtpPacket.padding_length.__set__
_set_invalid_padding = RtpPacket.invalid_padding.__set__


def looks_like_rtp(data: bytes, start: int = 0) -> bool:
    """Structural test used by the DPI candidate matcher.

    Mirrors Peafowl's RTP pattern *minus* its payload-type restriction, as
    the paper prescribes (§4.1.1): version must be 2 and the declared CSRC
    list and extension block must fit in the buffer.  ``start`` tests the
    packet at a payload offset without copying the tail.
    """
    if len(data) - start < FIXED_HEADER_LEN or start < 0:
        return False
    first = data[start]
    if first >> 6 != RTP_VERSION:
        return False
    # Exclude the RTCP packet-type range so RTP/RTCP demultiplexing follows
    # RFC 5761 §4: PT values 64-95 (with marker bit → 192-223) are RTCP.
    if 192 <= data[start + 1] <= 223:
        return False
    csrc_count = first & 0x0F
    offset = start + FIXED_HEADER_LEN + 4 * csrc_count
    if offset > len(data):
        return False
    if first & 0x10:  # extension present
        if offset + 4 > len(data):
            return False
        word_length = int.from_bytes(data[offset + 2:offset + 4], "big")
        offset += 4 + word_length * 4
        if offset > len(data):
            return False
    return True
