"""The analysis-level packet record shared by simulators and the pipeline.

A :class:`PacketRecord` is what the paper's Wireshark capture reduces to for
analysis: timestamp, 5-tuple, transport payload.  Simulators additionally
attach a :class:`Truth` label recording what the packet *really* is, which
lets the test-suite and benchmarks measure filter precision/recall — ground
truth the paper could not have for closed-source apps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class Direction(enum.Enum):
    """Direction relative to the device under test."""

    OUTBOUND = "outbound"
    INBOUND = "inbound"

    def flipped(self) -> "Direction":
        return Direction.INBOUND if self is Direction.OUTBOUND else Direction.OUTBOUND


class TrafficCategory(enum.Enum):
    """Ground-truth category attached by the simulators."""

    RTC_MEDIA = "rtc_media"
    RTC_CONTROL = "rtc_control"
    SIGNALING = "signaling"
    BACKGROUND = "background"


@dataclass(frozen=True)
class Truth:
    """Ground-truth label for a synthetic packet (never used by the pipeline)."""

    category: TrafficCategory
    app: str = ""
    detail: str = ""

    @property
    def is_rtc(self) -> bool:
        return self.category in (TrafficCategory.RTC_MEDIA, TrafficCategory.RTC_CONTROL)


@dataclass(frozen=True, slots=True, init=False)
class PacketRecord:
    """One captured transport-layer packet.

    ``payload`` is the transport payload (UDP datagram payload or TCP segment
    payload) — the byte string the DPI engine scans.

    ``__init__`` writes each slot through its member descriptor; the
    dataclass-generated frozen one goes through ``object.__setattr__`` at
    about twice the cost per record.  The batch decoder calls it
    positionally.  Equality, hashing, ``repr``, pickling, copying,
    ``dataclasses.replace`` and the frozen ``FrozenInstanceError`` are the
    dataclass's own.
    """

    timestamp: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    transport: str  # "UDP" or "TCP"
    payload: bytes
    direction: Direction = Direction.OUTBOUND
    truth: Optional[Truth] = None

    def __init__(
        self,
        timestamp: float,
        src_ip: str,
        src_port: int,
        dst_ip: str,
        dst_port: int,
        transport: str,
        payload: bytes,
        direction: Direction = Direction.OUTBOUND,
        truth: Optional[Truth] = None,
    ) -> None:
        if transport != "UDP" and transport != "TCP":
            raise ValueError(f"unsupported transport {transport!r}")
        _set_timestamp(self, timestamp)
        _set_src_ip(self, src_ip)
        _set_src_port(self, src_port)
        _set_dst_ip(self, dst_ip)
        _set_dst_port(self, dst_port)
        _set_transport(self, transport)
        _set_payload(self, payload)
        _set_direction(self, direction)
        _set_truth(self, truth)

    @property
    def five_tuple(self) -> Tuple[str, int, str, int, str]:
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.transport)

    @property
    def flow_key(self) -> Tuple[Tuple[str, int], Tuple[str, int], str]:
        """Direction-agnostic flow key: sorted endpoint pair plus transport.

        Packets of both directions of one conversation share a flow key, which
        is how the pipeline groups packets into *streams* (paper §3.2).
        """
        a = (self.src_ip, self.src_port)
        b = (self.dst_ip, self.dst_port)
        return (a, b, self.transport) if a <= b else (b, a, self.transport)

    @property
    def dst_three_tuple(self) -> Tuple[str, int, str]:
        """Destination-side 3-tuple used by the stage-2 timing filter."""
        return (self.dst_ip, self.dst_port, self.transport)

    def reply(self, timestamp: float, payload: bytes) -> "PacketRecord":
        """Build a packet in the reverse direction of the same conversation."""
        return PacketRecord(
            timestamp=timestamp,
            src_ip=self.dst_ip,
            src_port=self.dst_port,
            dst_ip=self.src_ip,
            dst_port=self.src_port,
            transport=self.transport,
            payload=payload,
            direction=self.direction.flipped(),
            truth=self.truth,
        )


#: The slot setters ``PacketRecord.__init__`` writes through.
_set_timestamp = PacketRecord.timestamp.__set__
_set_src_ip = PacketRecord.src_ip.__set__
_set_src_port = PacketRecord.src_port.__set__
_set_dst_ip = PacketRecord.dst_ip.__set__
_set_dst_port = PacketRecord.dst_port.__set__
_set_transport = PacketRecord.transport.__set__
_set_payload = PacketRecord.payload.__set__
_set_direction = PacketRecord.direction.__set__
_set_truth = PacketRecord.truth.__set__
