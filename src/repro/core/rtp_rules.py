"""RTP compliance rules (criteria 1-5).

Sources: RFC 3550 (header), RFC 3551 (payload types — informative only; the
7-bit PT field itself admits any value) and RFC 8285 (header extensions).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.verdict import Criterion, Violation
from repro.dpi.messages import ExtractedMessage
from repro.protocols.rtp.extensions import (
    ONE_BYTE_PROFILE,
    TWO_BYTE_PROFILE_BASE,
    TWO_BYTE_PROFILE_MASK,
)
from repro.protocols.rtp.header import RtpPacket


def _profile_defined(profile: int) -> bool:
    """RFC 8285 defines 0xBEDE and the 0x1000-0x100F appbits range."""
    return profile == ONE_BYTE_PROFILE or (profile & TWO_BYTE_PROFILE_MASK) == TWO_BYTE_PROFILE_BASE


def check_rtp(
    extracted: ExtractedMessage, sequential: bool = True
) -> Sequence[Violation]:
    """Run the five criteria over one RTP message.

    Only the padding count (criterion 2) and a header extension
    (criteria 3 and 4) can fail, so a packet with valid padding and no
    extension (most media) is judged compliant before any rule state is
    built.
    """
    packet: RtpPacket = extracted.message
    if not packet.invalid_padding and packet.extension is None:
        return ()
    violations: List[Violation] = []

    def done() -> bool:
        return sequential and bool(violations)

    # Criterion 1: the "message type" of RTP is its payload type — a 7-bit
    # field with no reserved encodings, so every value is structurally
    # defined (the paper removed Peafowl's PT restriction for this reason).
    # Version != 2 is rejected at parse time.

    # Criterion 2: header fields.
    if packet.invalid_padding:
        violations.append(
            Violation(
                Criterion.HEADER_FIELDS,
                "bad-padding",
                "padding bit set but the pad-count octet is zero or exceeds "
                "the payload (RFC 3550 §5.1)",
            )
        )
    if done():
        return violations

    extension = packet.extension
    if extension is None:
        return violations

    # Criterion 3: extension profile must be publicly defined.
    if not _profile_defined(extension.profile):
        violations.append(
            Violation(
                Criterion.ATTRIBUTE_TYPES,
                "undefined-extension-profile",
                f"header-extension profile 0x{extension.profile:04X} is not "
                f"0xBEDE or 0x1000-0x100F (RFC 8285)",
            )
        )
    if done():
        return violations

    # Criterion 4: extension element values.
    for element in extension.elements():
        if element.ext_id == 0 and element.declared_length > 0:
            violations.append(
                Violation(
                    Criterion.ATTRIBUTE_VALUES,
                    "id-zero-with-length",
                    "one-byte extension element with ID 0 must be a padding "
                    "byte with no length/data (RFC 8285 §4.2), but its length "
                    f"field encodes {element.declared_length} data bytes",
                )
            )
            if sequential:
                return violations
        elif element.declared_length > len(element.data):
            violations.append(
                Violation(
                    Criterion.ATTRIBUTE_VALUES,
                    "truncated-extension-element",
                    f"element id {element.ext_id} declares "
                    f"{element.declared_length} bytes but only "
                    f"{len(element.data)} remain in the extension block",
                )
            )
            if sequential:
                return violations

    # Criterion 5: no RTP-specific cross-message rule marks messages
    # non-compliant in this model (multi-RTP datagrams and non-random SSRCs
    # are reported as findings, not violations — paper §5.3).
    return violations
