"""RTP wire format (RFC 3550) and header extensions (RFC 8285)."""

from repro.protocols.rtp.extensions import (
    ONE_BYTE_PROFILE,
    TWO_BYTE_PROFILE_BASE,
    TWO_BYTE_PROFILE_MASK,
    ExtensionElement,
    HeaderExtension,
)
from repro.protocols.rtp.header import RtpPacket, RtpParseError, looks_like_rtp
from repro.protocols.rtp.payload_types import (
    STATIC_PAYLOAD_TYPES,
    is_dynamic_payload_type,
    payload_type_name,
)

__all__ = [
    "ONE_BYTE_PROFILE",
    "TWO_BYTE_PROFILE_BASE",
    "TWO_BYTE_PROFILE_MASK",
    "ExtensionElement",
    "HeaderExtension",
    "RtpPacket",
    "RtpParseError",
    "looks_like_rtp",
    "STATIC_PAYLOAD_TYPES",
    "is_dynamic_payload_type",
    "payload_type_name",
]
