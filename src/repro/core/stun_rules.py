"""STUN/TURN compliance rules (criteria 1-5).

Sources: RFC 3489, RFC 5389, RFC 8489 (STUN), RFC 8656 (TURN), RFC 8445
(ICE) plus the WebRTC-documented extensions.  A message is compliant if it
adheres to *any* published version (paper footnote 2), so the rules accept
both classic and magic-cookie framing.
"""

from __future__ import annotations

import zlib
from typing import Dict, FrozenSet, List, Optional

from repro.core.verdict import Criterion, Violation
from repro.dpi.messages import ExtractedMessage
from repro.protocols.stun.attributes import (
    ATTRIBUTE_FIXED_LENGTHS,
    ATTRIBUTE_MAX_LENGTHS,
    decode_error_code,
)
from repro.protocols.stun.constants import (
    CHANNEL_NUMBER_MAX,
    CHANNEL_NUMBER_MIN,
    KNOWN_ATTRIBUTE_TYPES,
    KNOWN_MESSAGE_TYPES,
    AddressFamily,
    AttributeType,
    attribute_name,
)
from repro.protocols.stun.message import ChannelData, StunMessage

_A = AttributeType

#: Address-bearing attributes: 4-byte prelude + 4 or 16 address bytes.
_ADDRESS_ATTRIBUTES = frozenset(
    int(a)
    for a in (
        _A.MAPPED_ADDRESS, _A.RESPONSE_ADDRESS, _A.SOURCE_ADDRESS,
        _A.CHANGED_ADDRESS, _A.REFLECTED_FROM, _A.XOR_MAPPED_ADDRESS,
        _A.XOR_PEER_ADDRESS, _A.XOR_RELAYED_ADDRESS, _A.ALTERNATE_SERVER,
        _A.RESPONSE_ORIGIN, _A.OTHER_ADDRESS,
    )
)

#: Attributes only meaningful in ICE *requests* (RFC 8445 §7.1); their
#: presence in a success response is the paper's criterion-4 example.
_REQUEST_ONLY_ATTRIBUTES = frozenset(
    int(a) for a in (_A.PRIORITY, _A.USE_CANDIDATE)
)

#: Per-message-type attribute whitelists where the RFC closes the set.
#: Data Indication: XOR-PEER-ADDRESS + DATA (or ICMP), nothing else
#: (RFC 8656 §11.6); Send Indication adds DONT-FRAGMENT (§11.4).
_CLOSED_ATTRIBUTE_SETS: Dict[int, FrozenSet[int]] = {
    0x0017: frozenset({int(_A.XOR_PEER_ADDRESS), int(_A.DATA), int(_A.ICMP)}),
    0x0016: frozenset({int(_A.XOR_PEER_ADDRESS), int(_A.DATA), int(_A.DONT_FRAGMENT)}),
}

#: Thresholds for the criterion-5 pattern detectors.
REPEAT_TXID_MIN = 5          # unanswered same-transaction retransmissions
REPEAT_TXID_MIN_SPAN = 5.0   # ...spread over at least this many seconds
ALLOCATE_PINGPONG_MIN = 10   # periodic Allocate Requests in one stream
ALLOCATE_PINGPONG_CV = 0.5   # max coefficient of variation of intervals
#: Criterion-2 example from §4.2: transaction IDs "that appear sequential
#: rather than randomly generated".  A run of this many new transactions
#: whose IDs increase by tiny steps cannot plausibly be random.
SEQUENTIAL_TXID_RUN = 5
SEQUENTIAL_TXID_MAX_STEP = 16


class StunSessionContext:
    """Cross-message state the criterion-5 checks need."""

    def __init__(self, messages: List[ExtractedMessage]):
        self.flagged_txids: FrozenSet[bytes] = frozenset()
        self.pingpong_streams: FrozenSet = frozenset()
        self.sequential_txids: FrozenSet[bytes] = frozenset()
        requests: Dict[bytes, List[float]] = {}
        answered: set = set()
        allocate_times: Dict[object, List[float]] = {}
        request_order: Dict[object, List[bytes]] = {}
        for extracted in messages:
            message = extracted.message
            if not isinstance(message, StunMessage):
                continue
            msg_class = message.msg_type & 0x0110
            if msg_class == 0x0000:  # request
                requests.setdefault(message.transaction_id, []).append(
                    extracted.timestamp
                )
                order = request_order.setdefault(extracted.stream_key, [])
                if not order or order[-1] != message.transaction_id:
                    order.append(message.transaction_id)
                if message.msg_type == 0x0003:
                    allocate_times.setdefault(extracted.stream_key, []).append(
                        extracted.timestamp
                    )
            elif msg_class in (0x0100, 0x0110):  # success / error response
                answered.add(message.transaction_id)
        self.sequential_txids = _find_sequential_runs(request_order)

        flagged = set()
        for txid, times in requests.items():
            if txid in answered or len(times) < REPEAT_TXID_MIN:
                continue
            if max(times) - min(times) >= REPEAT_TXID_MIN_SPAN:
                flagged.add(txid)
        self.flagged_txids = frozenset(flagged)

        pingpong = set()
        for stream_key, times in allocate_times.items():
            if len(times) < ALLOCATE_PINGPONG_MIN:
                continue
            times.sort()
            intervals = [b - a for a, b in zip(times, times[1:])]
            mean = sum(intervals) / len(intervals)
            if mean <= 0:
                continue
            variance = sum((x - mean) ** 2 for x in intervals) / len(intervals)
            if (variance ** 0.5) / mean <= ALLOCATE_PINGPONG_CV:
                pingpong.add(stream_key)
        self.pingpong_streams = frozenset(pingpong)


def _find_sequential_runs(
    request_order: Dict[object, List[bytes]]
) -> FrozenSet[bytes]:
    """Transaction IDs belonging to a long small-increment run."""
    flagged = set()
    for order in request_order.values():
        run: List[bytes] = []
        for txid in order:
            if run:
                try:
                    delta = int.from_bytes(txid, "big") - int.from_bytes(
                        run[-1], "big"
                    )
                except ValueError:  # pragma: no cover - txids are bytes
                    delta = None
                if delta is not None and 1 <= delta <= SEQUENTIAL_TXID_MAX_STEP:
                    run.append(txid)
                    continue
            if len(run) >= SEQUENTIAL_TXID_RUN:
                flagged.update(run)
            run = [txid]
        if len(run) >= SEQUENTIAL_TXID_RUN:
            flagged.update(run)
    return frozenset(flagged)


def check_stun(
    extracted: ExtractedMessage,
    context: StunSessionContext,
    sequential: bool = True,
) -> List[Violation]:
    """Run the five criteria over one STUN/TURN message."""
    message = extracted.message
    if isinstance(message, ChannelData):
        return _check_channel_data(extracted, sequential)
    violations: List[Violation] = []

    def done() -> bool:
        return sequential and bool(violations)

    # Criterion 1: message type defined.
    if message.msg_type not in KNOWN_MESSAGE_TYPES:
        violations.append(
            Violation(
                Criterion.MESSAGE_TYPE,
                "undefined-message-type",
                f"STUN message type 0x{message.msg_type:04X} is not defined "
                f"in any considered specification",
            )
        )
    if done():
        return violations

    # Criterion 2: header fields.  Framing errors (length, top bits) are
    # rejected at parse time, and parsing always yields a 12- or 16-byte
    # transaction ID; what remains is transaction-ID randomness.
    if message.transaction_id in context.sequential_txids:
        violations.append(
            Violation(
                Criterion.HEADER_FIELDS,
                "sequential-transaction-id",
                "transaction IDs increment sequentially across requests; "
                "RFC 8489 §5 requires cryptographically random IDs",
            )
        )
    if done():
        return violations

    # Criterion 3: attribute types defined.
    for attr in message.attributes:
        if attr.attr_type not in KNOWN_ATTRIBUTE_TYPES:
            violations.append(
                Violation(
                    Criterion.ATTRIBUTE_TYPES,
                    "undefined-attribute",
                    f"attribute type 0x{attr.attr_type:04X} is not defined "
                    f"in any considered specification",
                )
            )
            if sequential:
                return violations

    # Criterion 4: attribute values.
    violations.extend(_check_attribute_values(extracted, message, sequential))
    if done():
        return violations

    # Criterion 5: semantics.
    if message.transaction_id in context.flagged_txids:
        violations.append(
            Violation(
                Criterion.SEMANTICS,
                "unanswered-retransmission",
                "request retransmitted with an unchanged transaction ID and "
                "never answered — diverges from STUN retransmission semantics",
            )
        )
    if done():
        return violations
    if (
        message.msg_type == 0x0003
        and extracted.stream_key in context.pingpong_streams
    ):
        violations.append(
            Violation(
                Criterion.SEMANTICS,
                "allocate-pingpong",
                "periodic Allocate Requests used as connectivity checks; "
                "Allocate is intended for session setup only",
            )
        )
    return violations


def _check_attribute_values(
    extracted: ExtractedMessage, message: StunMessage, sequential: bool
) -> List[Violation]:
    violations: List[Violation] = []

    def add(code: str, detail: str) -> bool:
        violations.append(Violation(Criterion.ATTRIBUTE_VALUES, code, detail))
        return sequential

    closed_set = _CLOSED_ATTRIBUTE_SETS.get(message.msg_type)
    is_response = bool(message.msg_type & 0x0100)

    for attr in message.attributes:
        if attr.attr_type not in KNOWN_ATTRIBUTE_TYPES:
            continue  # judged under criterion 3
        name = attribute_name(attr.attr_type) or hex(attr.attr_type)

        fixed = ATTRIBUTE_FIXED_LENGTHS.get(attr.attr_type)
        if fixed is not None and len(attr.value) != fixed:
            if add("bad-attribute-length",
                   f"{name} must be {fixed} bytes, got {len(attr.value)}"):
                return violations
            continue
        maximum = ATTRIBUTE_MAX_LENGTHS.get(attr.attr_type)
        if maximum is not None and len(attr.value) > maximum:
            if add("bad-attribute-length",
                   f"{name} exceeds its maximum of {maximum} bytes "
                   f"({len(attr.value)} observed)"):
                return violations
            continue

        if attr.attr_type in _ADDRESS_ATTRIBUTES:
            if len(attr.value) < 4:
                if add("bad-attribute-length", f"{name} shorter than 4 bytes"):
                    return violations
                continue
            family = attr.value[1]
            body = len(attr.value) - 4
            if family == AddressFamily.IPV4 and body == 4:
                pass
            elif family == AddressFamily.IPV6 and body == 16:
                pass
            else:
                if add(
                    "bad-address-family",
                    f"{name} has address family 0x{family:02X} with "
                    f"{body} address bytes; RFC mandates 0x01/IPv4 or 0x02/IPv6",
                ):
                    return violations

        if attr.attr_type == _A.CHANNEL_NUMBER and len(attr.value) == 4:
            channel = int.from_bytes(attr.value[:2], "big")
            if not CHANNEL_NUMBER_MIN <= channel <= CHANNEL_NUMBER_MAX:
                if add(
                    "bad-channel-number",
                    f"channel 0x{channel:04X} outside 0x4000-0x4FFF",
                ):
                    return violations

        if attr.attr_type == _A.ERROR_CODE:
            try:
                error = decode_error_code(attr.value)
            except ValueError as exc:
                if add("bad-error-code", str(exc)):
                    return violations
            else:
                if not 3 <= error.error_class <= 6:
                    if add("bad-error-code",
                           f"error class {error.error_class} outside 3-6"):
                        return violations

        if attr.attr_type == _A.FINGERPRINT:
            problem = _check_fingerprint(extracted, message, attr)
            if problem is not None:
                if add("bad-fingerprint", problem):
                    return violations

        if closed_set is not None and attr.attr_type not in closed_set:
            if add(
                "attribute-not-allowed",
                f"{name} is not permitted in "
                f"{KNOWN_MESSAGE_TYPES[message.msg_type][0]}",
            ):
                return violations

        if is_response and attr.attr_type in _REQUEST_ONLY_ATTRIBUTES:
            if add(
                "attribute-not-allowed",
                f"request-only attribute {name} present in a response",
            ):
                return violations

    return violations


def _check_fingerprint(
    extracted: ExtractedMessage, message: StunMessage, attr
) -> Optional[str]:
    """Verify FINGERPRINT placement and CRC (RFC 8489 §14.7)."""
    if message.attributes[-1].attr_type != _A.FINGERPRINT:
        return "FINGERPRINT is not the last attribute"
    raw = extracted.raw[: 20 + message.body_length] if not message.classic else extracted.raw
    if len(raw) < 28:
        return "message too short to carry FINGERPRINT"
    expected = (zlib.crc32(raw[:-8]) & 0xFFFFFFFF) ^ 0x5354554E
    actual = int.from_bytes(attr.value, "big") if len(attr.value) == 4 else None
    if actual != expected:
        return f"FINGERPRINT CRC mismatch (got {actual}, expected {expected})"
    return None


def _check_channel_data(
    extracted: ExtractedMessage, sequential: bool
) -> List[Violation]:
    frame: ChannelData = extracted.message
    violations: List[Violation] = []
    if not frame.channel_valid:
        violations.append(
            Violation(
                Criterion.HEADER_FIELDS,
                "bad-channel-number",
                f"ChannelData channel 0x{frame.channel:04X} outside 0x4000-0x4FFF",
            )
        )
        if sequential:
            return violations
    if extracted.trailer:
        violations.append(
            Violation(
                Criterion.SEMANTICS,
                "channeldata-padding",
                f"{len(extracted.trailer)} padding bytes after ChannelData — "
                f"RFC 8656 §12.4 forbids padding over UDP",
            )
        )
    return violations
