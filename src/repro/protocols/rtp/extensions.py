"""RTP header-extension codec (RFC 3550 §5.3.1 and RFC 8285).

RFC 8285 defines two packings inside the generic RFC 3550 extension block:

- one-byte elements under profile ``0xBEDE``: 4-bit ID, 4-bit (length-1);
  ID 0 is padding with special semantics (zero length, ignored);
- two-byte elements under profiles ``0x1000``-``0x100F``: 8-bit ID,
  8-bit length.

Several of the paper's findings live here (Discord's ID=0 elements with
non-zero lengths, Discord's out-of-range profiles, FaceTime's undefined
profiles), so the parser preserves every structural detail instead of
normalizing it away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

ONE_BYTE_PROFILE = 0xBEDE
TWO_BYTE_PROFILE_BASE = 0x1000
TWO_BYTE_PROFILE_MASK = 0xFFF0


@dataclass(frozen=True)
class ExtensionElement:
    """One RFC 8285 extension element."""

    ext_id: int
    data: bytes
    declared_length: int  # as encoded; may legally differ from len(data) only for id=0


@dataclass(frozen=True, slots=True)
class HeaderExtension:
    """The generic RFC 3550 extension block: profile + 32-bit-word payload."""

    profile: int
    data: bytes

    @property
    def is_one_byte(self) -> bool:
        return self.profile == ONE_BYTE_PROFILE

    @property
    def is_two_byte(self) -> bool:
        return (self.profile & TWO_BYTE_PROFILE_MASK) == TWO_BYTE_PROFILE_BASE

    @property
    def word_length(self) -> int:
        return len(self.data) // 4

    def build(self) -> bytes:
        if len(self.data) % 4:
            raise ValueError("extension data must be a multiple of 4 bytes")
        return (
            self.profile.to_bytes(2, "big")
            + (len(self.data) // 4).to_bytes(2, "big")
            + self.data
        )

    def elements(self) -> List[ExtensionElement]:
        """Decode RFC 8285 elements; empty for non-8285 profiles."""
        if self.is_one_byte:
            return parse_one_byte_elements(self.data)
        if self.is_two_byte:
            return parse_two_byte_elements(self.data)
        return []


def parse_one_byte_elements(data: bytes) -> List[ExtensionElement]:
    """Parse one-byte-header elements, preserving anomalous ID-0 elements.

    Per RFC 8285 an ID of 0 is a padding byte and MUST have no length/data.
    Real traffic (Discord) violates this; to surface the violation we decode
    an ID-0 byte *with* its nibble-encoded length so the compliance layer
    can see ``declared_length > 0``.
    """
    elements: List[ExtensionElement] = []
    i = 0
    while i < len(data):
        byte = data[i]
        ext_id = byte >> 4
        length_minus_one = byte & 0x0F
        if byte == 0:
            # True padding byte (ID 0, zero length): ignored per RFC 8285.
            i += 1
            continue
        if ext_id == 15:
            # ID 15 terminates processing (RFC 8285 §4.2).
            break
        length = length_minus_one + 1
        chunk = data[i + 1:i + 1 + length]
        elements.append(
            ExtensionElement(ext_id=ext_id, data=chunk, declared_length=length)
        )
        i += 1 + length
    return elements


def parse_two_byte_elements(data: bytes) -> List[ExtensionElement]:
    elements: List[ExtensionElement] = []
    i = 0
    while i + 1 < len(data):
        ext_id = data[i]
        if ext_id == 0 and data[i + 1] == 0:
            i += 1  # padding byte
            continue
        length = data[i + 1]
        chunk = data[i + 2:i + 2 + length]
        elements.append(
            ExtensionElement(ext_id=ext_id, data=chunk, declared_length=length)
        )
        i += 2 + length
    return elements


def build_one_byte_extension(elements: List[tuple]) -> HeaderExtension:
    """Build a 0xBEDE extension from ``(id, data)`` pairs (1 <= len <= 16)."""
    out = bytearray()
    for ext_id, data in elements:
        if not 1 <= ext_id <= 14:
            raise ValueError(f"one-byte element id {ext_id} out of range")
        if not 1 <= len(data) <= 16:
            raise ValueError("one-byte element data must be 1-16 bytes")
        out.append((ext_id << 4) | (len(data) - 1))
        out.extend(data)
    while len(out) % 4:
        out.append(0)
    return HeaderExtension(profile=ONE_BYTE_PROFILE, data=bytes(out))


def build_two_byte_extension(
    elements: List[tuple], profile: int = TWO_BYTE_PROFILE_BASE
) -> HeaderExtension:
    """Build a two-byte-header extension from ``(id, data)`` pairs."""
    out = bytearray()
    for ext_id, data in elements:
        if not 1 <= ext_id <= 255:
            raise ValueError(f"two-byte element id {ext_id} out of range")
        if len(data) > 255:
            raise ValueError("two-byte element data must be <= 255 bytes")
        out.append(ext_id)
        out.append(len(data))
        out.extend(data)
    while len(out) % 4:
        out.append(0)
    return HeaderExtension(profile=profile, data=bytes(out))
