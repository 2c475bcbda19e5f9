"""STUN/TURN numeric registries.

Sources: RFC 3489 (classic STUN), RFC 5389 / RFC 8489 (STUN), RFC 8656
(TURN), RFC 8445 (ICE connectivity-check attributes), RFC 5780 (NAT
behaviour discovery), plus the libwebrtc additions the paper's specification
set ("public WebRTC documentations and RFCs") covers — e.g. GOOG-PING.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

MAGIC_COOKIE = 0x2112A442

# Top two bits of the 16-bit message-type field MUST be zero (RFC 8489 §5).
TYPE_FIELD_MASK = 0x3FFF


class MessageClass(enum.IntEnum):
    """The 2-bit class carried in bits C1/C0 of the message type."""

    REQUEST = 0b00
    INDICATION = 0b01
    SUCCESS_RESPONSE = 0b10
    ERROR_RESPONSE = 0b11


class StunMethod(enum.IntEnum):
    """Methods from RFC 8489 and RFC 8656 (plus legacy RFC 3489 values)."""

    BINDING = 0x001
    SHARED_SECRET = 0x002  # RFC 3489 only; removed by RFC 5389
    ALLOCATE = 0x003
    REFRESH = 0x004
    SEND = 0x006
    DATA = 0x007
    CREATE_PERMISSION = 0x008
    CHANNEL_BIND = 0x009
    # RFC 6062 (TURN over TCP)
    CONNECT = 0x00A
    CONNECTION_BIND = 0x00B
    CONNECTION_ATTEMPT = 0x00C
    # libwebrtc extension documented in the WebRTC source tree.
    GOOG_PING = 0x080


def message_type(method: int, msg_class: MessageClass) -> int:
    """Compose a 16-bit message type from method and class (RFC 8489 §5)."""
    if not 0 <= method <= 0xFFF:
        raise ValueError(f"method 0x{method:x} out of range")
    return (
        (method & 0x000F)
        | ((method & 0x0070) << 1)
        | ((method & 0x0F80) << 2)
        | ((msg_class & 0b01) << 4)
        | ((msg_class & 0b10) << 7)
    )


def message_method(msg_type: int) -> int:
    """Extract the 12-bit method from a 16-bit message type."""
    return (
        (msg_type & 0x000F)
        | ((msg_type & 0x00E0) >> 1)
        | ((msg_type & 0x3E00) >> 2)
    )


def message_class(msg_type: int) -> MessageClass:
    """Extract the 2-bit class from a 16-bit message type."""
    return MessageClass(((msg_type & 0x0010) >> 4) | ((msg_type & 0x0100) >> 7))


def _register_method(
    table: Dict[int, Tuple[str, str]],
    method: StunMethod,
    name: str,
    spec: str,
    classes: Tuple[MessageClass, ...],
) -> None:
    class_names = {
        MessageClass.REQUEST: "Request",
        MessageClass.INDICATION: "Indication",
        MessageClass.SUCCESS_RESPONSE: "Success Response",
        MessageClass.ERROR_RESPONSE: "Error Response",
    }
    for msg_class in classes:
        table[message_type(method, msg_class)] = (f"{name} {class_names[msg_class]}", spec)


_REQ_RESP = (
    MessageClass.REQUEST,
    MessageClass.SUCCESS_RESPONSE,
    MessageClass.ERROR_RESPONSE,
)

#: message type -> (human name, defining spec)
KNOWN_MESSAGE_TYPES: Dict[int, Tuple[str, str]] = {}
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.BINDING, "Binding", "RFC 8489",
                 _REQ_RESP + (MessageClass.INDICATION,))
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.SHARED_SECRET, "Shared Secret",
                 "RFC 3489", _REQ_RESP)
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.ALLOCATE, "Allocate", "RFC 8656", _REQ_RESP)
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.REFRESH, "Refresh", "RFC 8656", _REQ_RESP)
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.SEND, "Send", "RFC 8656",
                 (MessageClass.INDICATION,))
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.DATA, "Data", "RFC 8656",
                 (MessageClass.INDICATION,))
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.CREATE_PERMISSION, "CreatePermission",
                 "RFC 8656", _REQ_RESP)
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.CHANNEL_BIND, "ChannelBind",
                 "RFC 8656", _REQ_RESP)
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.CONNECT, "Connect", "RFC 6062", _REQ_RESP)
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.CONNECTION_BIND, "ConnectionBind",
                 "RFC 6062", _REQ_RESP)
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.CONNECTION_ATTEMPT, "ConnectionAttempt",
                 "RFC 6062", (MessageClass.INDICATION,))
_register_method(KNOWN_MESSAGE_TYPES, StunMethod.GOOG_PING, "GOOG-PING",
                 "WebRTC", (MessageClass.REQUEST, MessageClass.SUCCESS_RESPONSE))


def message_type_name(msg_type: int) -> Optional[str]:
    entry = KNOWN_MESSAGE_TYPES.get(msg_type)
    return entry[0] if entry else None


class AttributeType(enum.IntEnum):
    """Attribute types from the STUN/TURN/ICE registries."""

    # RFC 8489 / RFC 5389 comprehension-required
    MAPPED_ADDRESS = 0x0001
    RESPONSE_ADDRESS = 0x0002    # RFC 3489, deprecated
    CHANGE_REQUEST = 0x0003      # RFC 3489 / RFC 5780
    SOURCE_ADDRESS = 0x0004      # RFC 3489, deprecated
    CHANGED_ADDRESS = 0x0005     # RFC 3489, deprecated
    USERNAME = 0x0006
    PASSWORD = 0x0007            # RFC 3489, deprecated
    MESSAGE_INTEGRITY = 0x0008
    ERROR_CODE = 0x0009
    UNKNOWN_ATTRIBUTES = 0x000A
    REFLECTED_FROM = 0x000B      # RFC 3489, deprecated
    CHANNEL_NUMBER = 0x000C      # RFC 8656
    LIFETIME = 0x000D            # RFC 8656
    XOR_PEER_ADDRESS = 0x0012    # RFC 8656
    DATA = 0x0013                # RFC 8656
    REALM = 0x0014
    NONCE = 0x0015
    XOR_RELAYED_ADDRESS = 0x0016  # RFC 8656
    REQUESTED_ADDRESS_FAMILY = 0x0017  # RFC 8656
    EVEN_PORT = 0x0018           # RFC 8656
    REQUESTED_TRANSPORT = 0x0019  # RFC 8656
    DONT_FRAGMENT = 0x001A       # RFC 8656
    ACCESS_TOKEN = 0x001B        # RFC 7635
    MESSAGE_INTEGRITY_SHA256 = 0x001C  # RFC 8489
    PASSWORD_ALGORITHM = 0x001D  # RFC 8489
    USERHASH = 0x001E            # RFC 8489
    XOR_MAPPED_ADDRESS = 0x0020
    RESERVATION_TOKEN = 0x0022   # RFC 8656
    PRIORITY = 0x0024            # RFC 8445 (ICE)
    USE_CANDIDATE = 0x0025       # RFC 8445 (ICE)
    PADDING = 0x0026             # RFC 5780
    RESPONSE_PORT = 0x0027       # RFC 5780
    CONNECTION_ID = 0x002A       # RFC 6062
    ADDITIONAL_ADDRESS_FAMILY = 0x8000  # RFC 8656
    ADDRESS_ERROR_CODE = 0x8001  # RFC 8656
    PASSWORD_ALGORITHMS = 0x8002  # RFC 8489
    ALTERNATE_DOMAIN = 0x8003    # RFC 8489
    ICMP = 0x8004                # RFC 8656
    SOFTWARE = 0x8022
    ALTERNATE_SERVER = 0x8023
    TRANSACTION_TRANSMIT_COUNTER = 0x8025  # RFC 7982
    CACHE_TIMEOUT = 0x8027       # RFC 5780
    FINGERPRINT = 0x8028
    ICE_CONTROLLED = 0x8029      # RFC 8445
    ICE_CONTROLLING = 0x802A     # RFC 8445
    RESPONSE_ORIGIN = 0x802B     # RFC 5780
    OTHER_ADDRESS = 0x802C       # RFC 5780
    ECN_CHECK = 0x802D           # RFC 6679
    THIRD_PARTY_AUTHORIZATION = 0x802E  # RFC 7635
    MOBILITY_TICKET = 0x8030     # RFC 8016
    # libwebrtc additions (documented in the WebRTC source tree)
    GOOG_NETWORK_INFO = 0xC057
    GOOG_LAST_ICE_CHECK_RECEIVED = 0xC058
    GOOG_MISC_INFO = 0xC059
    GOOG_MESSAGE_INTEGRITY_32 = 0xC060
    GOOG_DELTA = 0xC061
    GOOG_DELTA_ACK = 0xC062


_ATTRIBUTE_SPECS: Dict[int, str] = {
    AttributeType.MAPPED_ADDRESS: "RFC 8489",
    AttributeType.RESPONSE_ADDRESS: "RFC 3489",
    AttributeType.CHANGE_REQUEST: "RFC 5780",
    AttributeType.SOURCE_ADDRESS: "RFC 3489",
    AttributeType.CHANGED_ADDRESS: "RFC 3489",
    AttributeType.USERNAME: "RFC 8489",
    AttributeType.PASSWORD: "RFC 3489",
    AttributeType.MESSAGE_INTEGRITY: "RFC 8489",
    AttributeType.ERROR_CODE: "RFC 8489",
    AttributeType.UNKNOWN_ATTRIBUTES: "RFC 8489",
    AttributeType.REFLECTED_FROM: "RFC 3489",
    AttributeType.CHANNEL_NUMBER: "RFC 8656",
    AttributeType.LIFETIME: "RFC 8656",
    AttributeType.XOR_PEER_ADDRESS: "RFC 8656",
    AttributeType.DATA: "RFC 8656",
    AttributeType.REALM: "RFC 8489",
    AttributeType.NONCE: "RFC 8489",
    AttributeType.XOR_RELAYED_ADDRESS: "RFC 8656",
    AttributeType.REQUESTED_ADDRESS_FAMILY: "RFC 8656",
    AttributeType.EVEN_PORT: "RFC 8656",
    AttributeType.REQUESTED_TRANSPORT: "RFC 8656",
    AttributeType.DONT_FRAGMENT: "RFC 8656",
    AttributeType.ACCESS_TOKEN: "RFC 7635",
    AttributeType.MESSAGE_INTEGRITY_SHA256: "RFC 8489",
    AttributeType.PASSWORD_ALGORITHM: "RFC 8489",
    AttributeType.USERHASH: "RFC 8489",
    AttributeType.XOR_MAPPED_ADDRESS: "RFC 8489",
    AttributeType.RESERVATION_TOKEN: "RFC 8656",
    AttributeType.PRIORITY: "RFC 8445",
    AttributeType.USE_CANDIDATE: "RFC 8445",
    AttributeType.PADDING: "RFC 5780",
    AttributeType.RESPONSE_PORT: "RFC 5780",
    AttributeType.CONNECTION_ID: "RFC 6062",
    AttributeType.ADDITIONAL_ADDRESS_FAMILY: "RFC 8656",
    AttributeType.ADDRESS_ERROR_CODE: "RFC 8656",
    AttributeType.PASSWORD_ALGORITHMS: "RFC 8489",
    AttributeType.ALTERNATE_DOMAIN: "RFC 8489",
    AttributeType.ICMP: "RFC 8656",
    AttributeType.SOFTWARE: "RFC 8489",
    AttributeType.ALTERNATE_SERVER: "RFC 8489",
    AttributeType.TRANSACTION_TRANSMIT_COUNTER: "RFC 7982",
    AttributeType.CACHE_TIMEOUT: "RFC 5780",
    AttributeType.FINGERPRINT: "RFC 8489",
    AttributeType.ICE_CONTROLLED: "RFC 8445",
    AttributeType.ICE_CONTROLLING: "RFC 8445",
    AttributeType.RESPONSE_ORIGIN: "RFC 5780",
    AttributeType.OTHER_ADDRESS: "RFC 5780",
    AttributeType.ECN_CHECK: "RFC 6679",
    AttributeType.THIRD_PARTY_AUTHORIZATION: "RFC 7635",
    AttributeType.MOBILITY_TICKET: "RFC 8016",
    AttributeType.GOOG_NETWORK_INFO: "WebRTC",
    AttributeType.GOOG_LAST_ICE_CHECK_RECEIVED: "WebRTC",
    AttributeType.GOOG_MISC_INFO: "WebRTC",
    AttributeType.GOOG_MESSAGE_INTEGRITY_32: "WebRTC",
    AttributeType.GOOG_DELTA: "WebRTC",
    AttributeType.GOOG_DELTA_ACK: "WebRTC",
}

KNOWN_ATTRIBUTE_TYPES = frozenset(int(t) for t in _ATTRIBUTE_SPECS)


def attribute_name(attr_type: int) -> Optional[str]:
    try:
        return AttributeType(attr_type).name.replace("_", "-")
    except ValueError:
        return None


def is_comprehension_required(attr_type: int) -> bool:
    """Attributes 0x0000-0x7FFF are comprehension-required (RFC 8489 §14)."""
    return attr_type < 0x8000


class AddressFamily(enum.IntEnum):
    """Address family codes used inside address-bearing attributes."""

    IPV4 = 0x01
    IPV6 = 0x02


#: Error codes defined across RFC 8489 / 8656 / 8445.
KNOWN_ERROR_CODES = frozenset(
    {
        300, 400, 401, 403, 420, 437, 438, 440, 441, 442, 443,
        446, 447, 486, 487, 500, 508,
    }
)

#: TURN channel numbers (RFC 8656 §12): valid range for channel data.
CHANNEL_NUMBER_MIN = 0x4000
CHANNEL_NUMBER_MAX = 0x4FFF
